"""The match-process body of the multiprocess engine.

Each worker is a forked child owning one shard of the token hash
memories (the lines :class:`~repro.parallel.mp.shard.ShardMap` assigns
it).  The compiled Rete network arrives by fork inheritance — shared
read-only pages, never pickled — and all mutable match state is
process-private, so no locks exist anywhere on the match path.

Message protocol (inbound, one queue per worker):

``("changes", seq, [(sign, wme), ...], ctx_ids)``
    One WM-change batch, broadcast to every worker.  Each worker runs
    the alpha network over the whole batch (cheap, read-only) and keeps
    exactly the root activations whose line it owns; non-line root
    activations (single-CE terminals) belong to the batch's designated
    worker so they are processed exactly once.  ``ctx_ids`` (None, or
    ``{"req", "session", "tenant"}`` from :mod:`repro.obs.context`) is
    the serve request that caused the batch; workers stamp it into
    their batch spans so stitched traces stay request-scoped across the
    process boundary.

``("act", node_id, side, sign, wmes)``
    A forwarded activation for a line this worker owns, produced by a
    peer whose join emitted a child token landing on our shard.  Peer
    and control process write the same inbox pipe, so an act may
    overtake the ``("changes", ...)`` broadcast it belongs to; that is
    legal — intra-batch order is commutative — and the overtaken
    batch message is deferred, never dropped.

``("flush", seq)``
    Sent by the control process only at quiescence (TaskCount == 0, so
    no task can still be in flight): reply on the results queue with
    the accumulated conflict-set deltas, match stats, IPC counters, the
    conjugate pending-delete count, and the observability *ship* — the
    worker's local spans/node-profiles/flight-tail, snapshotted and
    reset so each ship is a delta (:func:`repro.obs.fabric.build_ship`).

``("obs", enabled, max_events)``
    Mirror the control process's observability state.  Sent only
    between batches (workers are idle on ``inbox.get()`` then), so it
    can never interleave with a drain.

``("stop",)``
    Exit the process loop.

Termination bookkeeping mirrors §3.2's TaskCount: the shared counter
is incremented *before* any task becomes visible (one per worker per
broadcast batch, one per forwarded activation) and decremented only
after the receiving worker has fully drained the task *and* all local
descendants, so the counter reaching zero proves global quiescence.
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
from ...rete.token import Token
from ..conjugate import ConjugateMemory
from .shard import ShardMap

#: How many locally-queued activations are processed between inbox
#: polls.  Periodic polling bounds forwarded-task latency; the actual
#: deadlock freedom comes from :meth:`_WorkerState.route_child`
#: absorbing the inbox before every forward, so a worker never blocks
#: writing to a peer while its own pipe holds that peer's pending
#: write.
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
        #: Forwarded tasks absorbed mid-drain; their TaskCount units are
        #: released together with the batch unit after the drain.
        self.borrowed = 0
        #: Non-act messages pulled off the pipe mid-drain, replayed by
        #: the main loop in arrival order once the drain completes.  A
        #: peer's forwarded act for batch N can land in our pipe ahead
        #: of the control process's ("changes", N) broadcast — two
        #: producers, one pipe — so a drain triggered by that act may
        #: find the batch message behind it.
        self.deferred: List[tuple] = []
        self.stopping = False
        #: Per-flush-window IPC counters (reset after every flush reply).
        self.counters: Dict[str, int] = {
            "tasks_local": 0, "tasks_forwarded": 0, "ipc_msgs": 0,
        }
        self._forward_queues = None  # set by run_worker
        #: Shared cumulative drained-task counter (watchdog progress
        #: signal).
        self.tasks_done = None  # set by run_worker

    # -- TaskCount ----------------------------------------------------------

    def _count_add(self, n: int) -> None:
        with self.taskcount.get_lock():
            self.taskcount.value += n

    # -- task routing -------------------------------------------------------

    def route_child(self, task: Task) -> None:
        node, side, sign, token = task
        if not node.uses_line():
            # Terminals: no shared line, processed where produced.
            self.local.append(task)
            return
        owner = self.shard.route(node.node_id, node.key_for(side, token))
        if owner == self.wid:
            self.local.append(task)
        else:
            # Drain our own pipe before the potentially-blocking write
            # into the peer's.  Two workers forwarding heavily to each
            # other can otherwise fill both pipes and block forever in
            # `put` (the rubik hang: both processes in pipe_write,
            # TaskCount frozen).  Emptying our inbox first completes
            # the peer's pending write, so at most one side is ever
            # durably blocked and the other always reaches its next
            # absorb point.
            self.absorb_inbox()
            self._count_add(1)
            self.counters["tasks_forwarded"] += 1
            self.counters["ipc_msgs"] += 1
            self._forward_queues[owner].put(("act", node.node_id, side, sign, token.wmes))

    def route_children(self, children: List[Task]) -> None:
        """The kernel's seam: each child stays on the local stack or
        goes down its owning shard's pipe."""
        for child in children:
            self.route_child(child)

    def keep_roots(self, roots: List[Task], mine: bool) -> None:
        """The kernel's seam for a broadcast change: every worker
        derives every root, so instead of forwarding, keep exactly the
        ones whose line this shard owns.  Non-line roots (single-CE
        terminals) belong to the change's designated worker."""
        for task in roots:
            node, side, _sign, token = task
            if node.uses_line():
                key = node.key_for(side, token)
                if self.shard.route(node.node_id, key) == self.wid:
                    self.local.append(task)
            elif mine:
                self.local.append(task)

    def rebuild(self, msg) -> Task:
        _kind, node_id, side, sign, wmes = msg
        return (self.nodes[node_id], side, sign, Token.of(tuple(wmes)))

    # -- the drain loop -----------------------------------------------------

    def drain(self) -> None:
        """Process the local stack to empty, absorbing forwarded tasks.

        The kernel runs the activations, ``POLL_EVERY`` at a stretch;
        the inbox poll in between is this transport's business.  (The
        obs flag the kernel reads per stretch is stable for the whole
        drain: the "obs" control message only arrives between batches.)
        """
        processed = 0
        while self.local:
            ran = kernel.drain(
                self.ctx, self.local, self.route_children, limit=POLL_EVERY
            )
            processed += ran
            if ran == POLL_EVERY:
                self.absorb_inbox()
        self.counters["tasks_local"] += processed
        if processed:
            with self.tasks_done.get_lock():
                self.tasks_done.value += processed

    def absorb_inbox(self) -> None:
        """Pull any forwarded activations waiting on our pipe.

        Activations are absorbed immediately — intra-batch activation
        order is commutative (count-folded CS deltas, conjugate token
        memory), so running one early is always safe.  Anything else
        (a racing ``changes`` broadcast the act outran, an ``obs``
        toggle) is deferred to the main loop: those must run between
        drains, not inside one.  A ``flush`` can never appear here —
        it is only sent at TaskCount == 0, and we hold at least one
        undecremented unit while draining."""
        while not self.inbox.empty():
            msg = self.inbox.get()
            if msg[0] == "act":
                self.local.append(self.rebuild(msg))
                self.borrowed += 1
            elif msg[0] == "stop":
                self.stopping = True
            else:
                self.deferred.append(msg)

    def finish_units(self, own: int) -> None:
        """Release the batch's TaskCount units after a complete drain."""
        self._count_add(-(own + self.borrowed))
        self.borrowed = 0

    # -- message handlers ---------------------------------------------------

    def on_changes(self, seq: int, payload, ctx_ids) -> None:
        obs_on = _obs.ENABLED
        if obs_on:
            t0 = _obs.now()
        _flight.record(
            "mp.worker", "batch",
            {"wid": self.wid, "seq": seq, "changes": len(payload)},
        )
        stats = self.ctx.stats
        n_workers = self.shard.n_workers
        for i, (sign, wme) in enumerate(payload):
            # Alpha work is replicated on every worker; only the
            # change's designated worker counts it, so merged stats
            # match the sequential matcher's.
            mine = i % n_workers == self.wid
            kernel.enter_change(
                self.network, stats, sign, wme,
                lambda roots: self.keep_roots(roots, mine), count=mine,
            )
        self.drain()
        self.finish_units(1)
        if obs_on:
            # The "seq" arg is the stitch key: the control process's
            # dispatch span for this batch carries the same number.
            args = {"seq": seq, "wid": self.wid, "changes": len(payload)}
            if ctx_ids is not None:
                args.update(ctx_ids)
            _obs.span("mp.worker", "batch", t0, _obs.now(), args=args)

    def on_act(self, msg) -> None:
        self.local.append(self.rebuild(msg))
        self.drain()
        self.finish_units(1)

    def on_flush(self, seq: int) -> None:
        deltas = [
            (d.production.name, d.token.wmes, d.sign)
            for d in self.ctx.cs_deltas
        ]
        self.ctx.cs_deltas = []
        self.outbox.put((
            "deltas",
            self.wid,
            seq,
            deltas,
            self.ctx.stats,
            dict(self.counters),
            self.memory.pending_deletes,
            # The obs ship piggybacks on the flush reply — no extra IPC
            # round trips.  Cheap when obs is off (empty registry).
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
            elif kind == "act":
                state.on_act(msg)
            elif kind == "flush":
                state.on_flush(msg[1])
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
