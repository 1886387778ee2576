"""The match-process body of the multiprocess engine.

Each worker is a forked child that owns whole productions: production
``i`` of the network belongs to worker ``i % n_workers``.  Beta nodes
are never shared between productions (paper footnote 6), so every
child of an activation belongs to the same production as its parent
and stays on the worker's own stack: a worker never sends a task
anywhere, and its token memories are a plain strict
:class:`~repro.rete.memories.MemorySystem` that no other process
touches.  The compiled Rete network arrives by fork inheritance —
shared read-only pages, never pickled.

Message protocol (inbound, one queue per worker, written only by the
control process):

``("changes", seq, [(sign, wme, [(node_id, side), ...]), ...], ctx_ids)``
    This worker's share of one WM-change batch: per change with roots
    for it, the roots of its productions, in the order the alpha pass
    produced them.  A worker with no roots in a batch gets no message.
    The worker drains each change's roots to quiescence in turn — the
    sequential engine's order, restricted to its productions — and
    replies ``("deltas", wid, seq, deltas, ship)`` with the batch's
    conflict-set changes as ``(production name, token, sign)``.
    ``ctx_ids`` (None, or ``{"req", "session", "tenant"}`` from
    :mod:`repro.obs.context`) is the serve request that caused the
    batch; workers stamp it into their batch spans so stitched traces
    stay request-scoped across the process boundary.

``("report", seq)``
    Sent by the control process only between batches: after every batch
    while the bus is on, and otherwise when someone reads its ``stats``
    or ``ipc_counters`` (and once more at ``close``).  Reply with the
    cumulative match stats and a ship.

``("obs", enabled, max_events)``
    Mirror the control process's observability state.  Sent only
    between batches (workers are idle on ``inbox.get()`` then), so it
    can never interleave with a drain.

``("stop",)``
    Exit the process loop.

The *ship* (:func:`repro.obs.fabric.build_ship`) is the worker's flight
tail and, bus on, its spans and node profiles since the last one.  A
``deltas`` reply carries it while the bus is off (None otherwise); a
traced run ships exactly once per worker per batch, in the ``report``
reply.
"""

from __future__ import annotations

import os
import traceback

from ...obs import events as _obs
from ...obs import fabric as _fabric
from ...obs import flight as _flight
from ...rete import kernel
from ...rete.memories import MemorySystem
from ...rete.nodes import MatchContext
from ...rete.stats import MatchStats


class _WorkerState:
    """Everything one match process owns: its productions' memories
    and its stats."""

    def __init__(self, wid, network, outbox, tasks_done):
        self.wid = wid
        self.outbox = outbox
        #: Shared cumulative drained-task counter (watchdog progress
        #: signal).
        self.tasks_done = tasks_done
        self.nodes = {node.node_id: node for node in network.beta_nodes}
        self.ctx = MatchContext(MemorySystem("hash"), MatchStats())

    def on_changes(self, seq: int, payload, ctx_ids) -> None:
        obs_on = _obs.ENABLED
        if obs_on:
            t0 = _obs.now()
        _flight.record(
            "mp.worker", "batch",
            {"wid": self.wid, "seq": seq, "changes": len(payload)},
        )
        ctx, nodes = self.ctx, self.nodes
        done = 0
        for sign, wme, roots in payload:
            token = ((wme,), (wme.timetag,))
            done += kernel.drain(
                ctx, [(nodes[node_id], side, sign, token) for node_id, side in roots]
            )
        with self.tasks_done.get_lock():
            self.tasks_done.value += done
        if obs_on:
            # The "seq" arg is the stitch key: the control process's
            # dispatch span for this batch carries the same number.
            args = {"seq": seq, "wid": self.wid, "changes": len(payload)}
            if ctx_ids is not None:
                args.update(ctx_ids)
            _obs.span("mp.worker", "batch", t0, _obs.now(), args=args)
        deltas = [
            (production.name, token, sign)
            for production, token, sign in ctx.cs_deltas
        ]
        ctx.cs_deltas = []
        ship = None if obs_on else _fabric.build_ship()
        self.outbox.put(("deltas", self.wid, seq, deltas, ship))

    def on_report(self, seq: int) -> None:
        self.outbox.put(
            ("report", self.wid, seq, self.ctx.stats, _fabric.build_ship()))

    def on_obs(self, msg) -> None:
        """Mirror the control process's obs state (between batches)."""
        _kind, want, max_events = msg
        if want:
            _obs.reset()
            _obs.enable(max_events)
        else:
            _obs.disable()
            _obs.reset()


def run_worker(wid, network, inbox, outbox, tasks_done) -> None:
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
    state = _WorkerState(wid, network, outbox, tasks_done)
    try:
        while True:
            msg = inbox.get()
            kind = msg[0]
            if kind == "changes":
                state.on_changes(msg[1], msg[2], msg[3])
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
            outbox.put(
                ("error", wid, traceback.format_exc(),
                 _flight.tail(_fabric.SHIP_FLIGHT_TAIL))
            )
        finally:
            raise
