"""The match-process body of the multiprocess engine.

Each worker is a forked child owning one shard of the token hash
memories (the lines :class:`~repro.parallel.mp.shard.ShardMap` assigns
it).  The compiled Rete network arrives by fork inheritance — shared
read-only pages, never pickled — and all mutable match state is
process-private, so no locks exist anywhere on the match path.

Message protocol (inbound, one queue per worker):

``("changes", seq, [(sign, wme, [(node_id, side), ...]), ...], ctx_ids)``
    This worker's share of one WM-change batch.  The control process
    ran the alpha network once and routed each root activation once:
    a line's roots to the line's owner, a change's non-line roots
    (single-CE terminals) to the change's designated worker.  A worker
    with no roots in a batch gets no message.  ``ctx_ids`` (None, or
    ``{"req", "session", "tenant"}`` from :mod:`repro.obs.context`) is
    the serve request that caused the batch; workers stamp it into
    their batch spans so stitched traces stay request-scoped across the
    process boundary.

``("acts", seq, [(node_id, side, sign, token), ...])``
    Forwarded activations for lines this worker owns, produced by a
    peer whose joins emitted child tokens landing on our shard.  The
    peer sends what it has for us after each stretch of its drain, at
    the end of it, and at once when the waiting tokens hold
    ``POLL_EVERY`` WMEs — the bound on a message's size.  A worker may
    meet a batch only through acts, and since peer and control process
    write the same inbox pipe, acts may overtake the ``("changes",
    ...)`` message they belong to; both are legal — intra-batch order
    is commutative — so the worker adopts the ``seq`` of the acts it
    drains, and an overtaken batch message is deferred, never dropped.

``("report", seq)``
    Sent by the control process only between batches: after every batch
    while the bus is on, and otherwise when someone reads its ``stats``
    or ``ipc_counters`` (and once more at ``close``).  Reply with the
    cumulative match stats, the IPC counters since the last reply, and
    a ship.

``("obs", enabled, max_events)``
    Mirror the control process's observability state.  Sent only
    between batches (workers are idle on ``inbox.get()`` then), so it
    can never interleave with a drain.

``("stop",)``
    Exit the process loop.

Outbound, on the one results queue, a drain's conflict-set deltas ride
its release: before a worker gives back its TaskCount units it posts
``("deltas", wid, seq, deltas, pending, ship)`` if the drain left new
deltas or changed its conjugate pending-delete count.  The *ship*
(:func:`repro.obs.fabric.build_ship`) is the worker's flight tail and,
bus on, its spans and node profiles since the last one.  A ``deltas``
report carries it while the bus is off (None otherwise); a traced run
ships exactly once per worker per batch, in the ``report`` reply.

Termination bookkeeping mirrors §3.2's TaskCount: the shared counter
is incremented *before* any task becomes visible (one per recipient of
a batch, one per forwarded activation) and decremented only after the
receiving worker has fully drained the task *and* all local
descendants, so the counter reaching zero proves global quiescence.
The worker whose release brings it to zero says so: it posts
``("quiet", seq, report)`` on the results queue, its own report (or
None) merged in.  Every other report was posted before its sender's
release, so it is ahead of ``quiet`` in the pipe, and the control
process has the batch's every delta when ``quiet`` arrives.

Two rules keep the peer pipes from deadlocking, and the code must keep
both: every worker empties its own inbox before each write to a peer,
and a message must fit in an emptied pipe (64 KiB on Linux).  Two
workers writing to each other at once then each find room.  A pickled
``acts`` message costs about its WMEs (each pickled once per message),
so capping it at ``POLL_EVERY`` WMEs plus one token keeps it under 8 KB
on the bundled programs (``tests/parallel/test_mp_engine.py`` checks
rubik, whose tokens are the longest).  A ``changes`` message need not
fit (weaver 8x4's startup share is ~50 KB): the worker it goes to is
idle or reads it whole at its next absorb.  With three or more workers
the rules are not a proof: several peers can fill one pipe between two
absorbs of its reader.
"""

from __future__ import annotations

import os
import traceback
from typing import Dict, List

from ...obs import events as _obs
from ...obs import fabric as _fabric
from ...obs import flight as _flight
from ...rete import kernel
from ...rete.nodes import MatchContext, Task
from ...rete.stats import MatchStats
from ..conjugate import ConjugateMemory
from .shard import ShardMap

#: How many locally-queued activations run between inbox polls, and
#: how many WMEs of waiting tokens make an ``acts`` message go at once —
#: the bound that keeps a message inside an emptied pipe (module
#: docstring).
POLL_EVERY = 64


class _WorkerState:
    """Everything one match process owns: shard memory, stats, queues."""

    def __init__(self, wid, network, shard: ShardMap, inbox, outbox, taskcount):
        self.wid = wid
        self.network = network
        self.shard = shard
        self.inbox = inbox
        self.outbox = outbox
        self.taskcount = taskcount
        self.nodes = {node.node_id: node for node in network.beta_nodes}
        self.memory = ConjugateMemory(shard.n_lines)
        self.ctx = MatchContext(self.memory, MatchStats(), strict=False)
        self.local: List[Task] = []
        #: Per peer, the child activations waiting to go down its pipe
        #: as one ``acts`` message, and how many WMEs their tokens hold.
        self.outgoing: List[list] = [[] for _ in range(shard.n_workers)]
        self.outgoing_wmes: List[int] = [0] * shard.n_workers
        #: Forwarded tasks absorbed mid-drain; their TaskCount units are
        #: released together with the drain's own units.
        self.borrowed = 0
        #: Non-act messages pulled off the pipe mid-drain, replayed by
        #: the main loop in arrival order once the drain completes.  A
        #: peer's forwarded acts for batch N can land in our pipe ahead
        #: of the control process's ("changes", N) message — two
        #: producers, one pipe — so a drain triggered by them may find
        #: the batch message behind them.
        self.deferred: List[tuple] = []
        self.stopping = False
        #: The batch being matched: the seq a report and ``quiet`` carry.
        self.seq = 0
        #: The conjugate pending-delete count the last report carried.
        self.reported_pending = 0
        #: IPC counters since the last ``report`` reply.
        self.counters: Dict[str, int] = {
            "tasks_local": 0, "tasks_forwarded": 0, "ipc_msgs": 0,
        }
        self._forward_queues = None  # set by run_worker
        #: Shared cumulative drained-task counter (watchdog progress
        #: signal).
        self.tasks_done = None  # set by run_worker

    # -- task routing -------------------------------------------------------

    def route_children(self, children: List[Task]) -> None:
        """The kernel's seam: each child stays on the local stack or
        waits in its owning shard's outgoing list."""
        route = self.shard.route
        for task in children:
            node, side, sign, token = task
            if not node.uses_line():
                # Terminals: no shared line, processed where produced.
                self.local.append(task)
                continue
            owner = route(node.node_id, node.key_for(side, token))
            if owner == self.wid:
                self.local.append(task)
            else:
                self.outgoing[owner].append((node.node_id, side, sign, token))
                self.outgoing_wmes[owner] += len(token[0])
                if self.outgoing_wmes[owner] >= POLL_EVERY:
                    self.send(owner)

    def send(self, owner: int) -> None:
        """Forward ``owner``'s waiting activations as one message."""
        acts = self.outgoing[owner]
        self.outgoing[owner] = []
        self.outgoing_wmes[owner] = 0
        # Empty our own pipe before the potentially-blocking write into
        # the peer's.  Two workers forwarding to each other can
        # otherwise fill both pipes and block forever in `put` (the
        # rubik hang: both processes in pipe_write, TaskCount frozen).
        self.absorb_inbox()
        with self.taskcount.get_lock():
            self.taskcount.value += len(acts)
        self.counters["tasks_forwarded"] += len(acts)
        self.counters["ipc_msgs"] += 1
        self._forward_queues[owner].put(("acts", self.seq, acts))

    # -- the drain loop -----------------------------------------------------

    def drain(self) -> None:
        """Process the local stack to empty, absorbing forwarded tasks
        and sending our own.

        The kernel runs the activations, ``POLL_EVERY`` at a stretch;
        after each stretch the inbox is polled and every waiting
        outgoing list is sent.  A send absorbs the inbox first, which
        may refill the local stack, so the loop ends only when a stretch
        left both the stack and the outgoing lists empty.  (The obs flag
        the kernel reads per stretch is stable for the whole drain: the
        "obs" control message only arrives between batches.)
        """
        processed = 0
        while self.local:
            ran = kernel.drain(
                self.ctx, self.local, self.route_children, limit=POLL_EVERY
            )
            processed += ran
            if ran == POLL_EVERY:
                self.absorb_inbox()
            for owner, acts in enumerate(self.outgoing):
                if acts:
                    self.send(owner)
        self.counters["tasks_local"] += processed
        if processed:
            with self.tasks_done.get_lock():
                self.tasks_done.value += processed

    def absorb_inbox(self) -> None:
        """Pull any forwarded activations waiting on our pipe.

        Activations are absorbed immediately — intra-batch activation
        order is commutative (count-folded CS deltas, conjugate token
        memory), so running one early is always safe.  Anything else
        (a ``changes`` message the acts outran, an ``obs`` toggle) is
        deferred to the main loop: those must run between drains, not
        inside one.  A ``report`` can never appear here — it is only
        sent at TaskCount == 0, and we hold at least one unreleased unit
        while draining."""
        while not self.inbox.empty():
            msg = self.inbox.get()
            if msg[0] == "acts":
                self.take(msg[1], msg[2])
                self.borrowed += len(msg[2])
            elif msg[0] == "stop":
                self.stopping = True
            else:
                self.deferred.append(msg)

    def take(self, seq: int, acts) -> None:
        """Put forwarded activations on the local stack; their batch is
        the one being matched."""
        self.seq = seq
        nodes = self.nodes
        self.local.extend(
            (nodes[node_id], side, sign, token)
            for node_id, side, sign, token in acts
        )

    def report(self):
        """This drain's ``deltas`` message, or None when it left no new
        conflict-set deltas and the same pending-delete count.

        While the bus is off its ship is the flight tail.  With the bus
        on the ship waits for the ``report`` round trip every traced
        batch ends with, so one ship per worker per batch carries its
        spans."""
        ctx = self.ctx
        pending = self.memory.pending_deletes
        if not ctx.cs_deltas and pending == self.reported_pending:
            return None
        deltas = [
            (production.name, token, sign)
            for production, token, sign in ctx.cs_deltas
        ]
        ctx.cs_deltas = []
        self.reported_pending = pending
        ship = None if _obs.ENABLED else _fabric.build_ship()
        return ("deltas", self.wid, self.seq, deltas, pending, ship)

    def release(self, own: int) -> None:
        """Post the drain's report, then give back its TaskCount units
        (``own`` plus the borrowed ones); the release that reaches zero
        announces quiescence, with the report merged in when there is
        one.  A report that does not end the batch goes *before* the
        release, so it is ahead of whichever ``quiet`` ends it."""
        units = own + self.borrowed
        self.borrowed = 0
        report = self.report()
        lock = self.taskcount.get_lock()
        if report is not None:
            with lock:
                last = self.taskcount.value == units
                if last:
                    self.taskcount.value = 0
            if last:
                self.outbox.put(("quiet", self.seq, report))
                return
            self.outbox.put(report)
        with lock:
            self.taskcount.value -= units
            last = self.taskcount.value == 0
        if last:
            self.outbox.put(("quiet", self.seq, None))

    # -- message handlers ---------------------------------------------------

    def on_changes(self, seq: int, payload, ctx_ids) -> None:
        self.seq = seq
        obs_on = _obs.ENABLED
        if obs_on:
            t0 = _obs.now()
        _flight.record(
            "mp.worker", "batch",
            {"wid": self.wid, "seq": seq, "changes": len(payload)},
        )
        nodes = self.nodes
        local = self.local
        for sign, wme, roots in payload:
            token = ((wme,), (wme.timetag,))
            for node_id, side in roots:
                local.append((nodes[node_id], side, sign, token))
        self.drain()
        if obs_on:
            # The "seq" arg is the stitch key: the control process's
            # dispatch span for this batch carries the same number.
            args = {"seq": seq, "wid": self.wid, "changes": len(payload)}
            if ctx_ids is not None:
                args.update(ctx_ids)
            _obs.span("mp.worker", "batch", t0, _obs.now(), args=args)
        self.release(1)

    def on_acts(self, seq: int, acts) -> None:
        self.take(seq, acts)
        self.drain()
        self.release(len(acts))

    def on_report(self, seq: int) -> None:
        self.outbox.put((
            "report", self.wid, seq, self.ctx.stats, dict(self.counters),
            _fabric.build_ship(),
        ))
        for key in self.counters:
            self.counters[key] = 0

    def on_obs(self, msg) -> None:
        """Mirror the control process's obs state (between batches)."""
        _kind, want, max_events = msg
        if want:
            _obs.reset()
            _obs.enable(max_events)
        else:
            _obs.disable()
            _obs.reset()


def run_worker(wid, network, shard, inboxes, outbox, taskcount,
               tasks_done) -> None:
    """Process entry point: loop until ``("stop",)`` or failure.

    Failures are reported on the results queue as
    ``("error", wid, traceback_text, flight_tail)`` before the process
    exits, so the control process can surface the real exception — and
    the worker's last recorded moments — instead of a hang.
    """
    # Obs module state arrived by fork inheritance from the control
    # process; start clean and let the explicit ("obs", ...) protocol
    # drive it, so worker captures never alias the parent's buffers.
    _obs.disable()
    _obs.reset()
    _flight.reset()
    _flight.record("mp.worker", "start", {"wid": wid, "pid": os.getpid()})
    state = _WorkerState(wid, network, shard, inboxes[wid], outbox, taskcount)
    state._forward_queues = inboxes
    state.tasks_done = tasks_done
    try:
        while not state.stopping:
            if state.deferred:
                msg = state.deferred.pop(0)
            else:
                msg = state.inbox.get()
            kind = msg[0]
            if kind == "changes":
                state.on_changes(msg[1], msg[2], msg[3])
            elif kind == "acts":
                state.on_acts(msg[1], msg[2])
            elif kind == "report":
                state.on_report(msg[1])
            elif kind == "obs":
                state.on_obs(msg)
            elif kind == "stop":
                _flight.record("mp.worker", "stop", {"wid": wid})
                break
            else:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unknown message {kind!r}")
    except BaseException as exc:
        _flight.record(
            "mp.worker", "error",
            {"wid": wid, "error": repr(exc)},
        )
        try:
            state.outbox.put(
                ("error", wid, traceback.format_exc(),
                 _flight.tail(_fabric.SHIP_FLIGHT_TAIL))
            )
        finally:
            raise
