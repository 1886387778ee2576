"""A matcher's share, and the match-process body of the multiprocess engine.

Matcher ``w`` owns whole productions: production ``i`` of the network
belongs to matcher ``i % n_workers``.  Beta nodes are never shared
between productions (paper footnote 6), so every child of an
activation belongs to the same production as its parent and stays on
the matcher's own stack: a matcher never sends a task anywhere, and its
token memories are a plain strict
:class:`~repro.rete.memories.MemorySystem` that no other matcher
touches.  :class:`Share` holds them and :meth:`Share.drain` is the one
drain loop.  Matcher 0's share lives in the control process; each
other matcher is a forked worker (:func:`run_worker`), which the
compiled Rete network reaches by fork inheritance — shared read-only
pages, never pickled.

Per batch, a forked worker:

1. receives its share of the batch as one ``changes`` message;
2. drains it (:meth:`Share.drain`): each change's alpha hits become
   its roots (:func:`root_tables`), drained to quiescence change by
   change — the sequential engine's order, restricted to its
   productions — while the control process drains matcher 0's;
3. replies once, with the batch's conflict-set changes as timetags.

Message protocol: one duplex pipe per worker, whose other end only the
control process holds; every message is one ``send_bytes`` of one
pickle.  Inbound:

``("changes", seq, [(sign, wme or timetag, [alpha_id, ...]), ...], ctx_ids)``
    This worker's share of one WM-change batch: per change with roots
    for it, the alpha terminals the change passed that reach its
    productions, in the order the alpha pass produced them.  A worker
    with no roots in a batch gets no message.  A ``+`` change carries
    its WME, which the worker keeps by timetag; a ``-`` change only the
    timetag (a delete has its add's hits, so it reaches each worker
    that kept the WME).  The worker drains it
    and replies ``("deltas", seq, deltas, flight)``: the batch's conflict-set
    changes as ``(production name, timetags, sign)``, and the flight
    events recorded since its last reply.  ``ctx_ids`` (None, or
    ``{"req", "session", "tenant"}`` from :mod:`repro.obs.context`) is
    the serve request that caused the batch; workers stamp it into
    their batch spans so stitched traces stay request-scoped across
    the process boundary.

``("report", seq)``
    Sent by the control process only between batches: after every batch
    while the bus is on, and otherwise when someone reads its ``stats``
    or ``ipc_counters`` (and once more at ``close``).  Reply with the
    cumulative match stats and a ship (:func:`repro.obs.fabric.build_ship`).

``("obs", enabled, max_events)``
    Mirror the control process's observability state.  Sent only
    between batches (workers are idle on ``recv`` then), so it can
    never interleave with a drain.

``("stop",)``
    Exit the process loop.  So does EOF: the control process died.
"""

from __future__ import annotations

import os
import pickle
import traceback

from ...obs import events as _obs
from ...obs import fabric as _fabric
from ...obs import flight as _flight
from ...rete import kernel
from ...rete.memories import MemorySystem
from ...rete.nodes import MatchContext
from ...rete.stats import MatchStats


def root_tables(network, n_matchers: int) -> list:
    """Per matcher, alpha id -> that terminal's successors whose
    production the matcher owns (production ``i`` belongs to matcher
    ``i % n_matchers``), in the terminal's order."""
    index = {prod.name: i for i, prod in enumerate(network.productions)}
    tables = [{} for _ in range(n_matchers)]
    for terminal in network.alpha_terminals:
        for node, side in terminal.successors:
            wid = index[network.node_owner[node.node_id]] % n_matchers
            tables[wid].setdefault(terminal.alpha_id, []).append((node, side))
    return tables


class Share:
    """One matcher's productions: their memories, the WMEs they hold and
    its stats.  A forked worker drains its share; the control process
    drains matcher 0's, between posting the others and collecting
    their replies."""

    def __init__(self, wid, roots, tasks_done):
        self.wid = wid
        #: Alpha id -> this matcher's roots there (:func:`root_tables`).
        self.roots = roots
        #: One drained-task slot per matcher, this one written only here
        #: (the watchdog's progress signal).
        self.tasks_done = tasks_done
        #: The bus lane of this share's batch spans, the matcher's name
        #: (a forked worker's spans are filed under the same name).
        self.lane = f"match-{wid}"
        self.ctx = MatchContext(MemorySystem("hash"), MatchStats())
        #: Timetag -> WME, for every WME added here and not yet removed.
        self.wmes = {}

    def drain(self, seq: int, payload, ctx_ids) -> list:
        """Expand each change's alpha hits into this share's roots and
        drain them to quiescence, change by change — the sequential
        engine's order, restricted to this share's productions — and
        return the batch's conflict-set changes."""
        obs_on = _obs.ENABLED
        if obs_on:
            t0 = _obs.now()
        _flight.record(
            "mp.worker", "batch",
            {"wid": self.wid, "seq": seq, "changes": len(payload)},
        )
        ctx, roots, wmes = self.ctx, self.roots, self.wmes
        done = 0
        for sign, wme, hits in payload:
            if sign > 0:
                wmes[wme.timetag] = wme
            else:
                wme = wmes.pop(wme)
            token = ((wme,), (wme.timetag,))
            done += kernel.drain(
                ctx, [(node, side, sign, token)
                      for alpha_id in hits for node, side in roots[alpha_id]]
            )
        self.tasks_done[self.wid] += done
        if obs_on:
            # The "seq" arg is the stitch key: the control process's
            # dispatch span for this batch carries the same number.
            args = {"seq": seq, "wid": self.wid, "changes": len(payload)}
            if ctx_ids is not None:
                args.update(ctx_ids)
            _obs.span("mp.worker", "batch", t0, _obs.now(), args=args, lane=self.lane)
        deltas, ctx.cs_deltas = ctx.cs_deltas, []
        return deltas


class _WorkerState(Share):
    """A forked worker: its share, and the pipe it answers on."""

    def __init__(self, wid, roots, conn, tasks_done):
        super().__init__(wid, roots, tasks_done)
        self.conn = conn

    def reply(self, msg: tuple) -> None:
        self.conn.send_bytes(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))

    def on_changes(self, seq: int, payload, ctx_ids) -> None:
        deltas = [(production.name, token[1], sign)
                  for production, token, sign in self.drain(seq, payload, ctx_ids)]
        self.reply(("deltas", seq, deltas, _flight.unshipped(_fabric.SHIP_FLIGHT_TAIL)))

    def on_report(self, seq: int) -> None:
        self.reply(("report", seq, self.ctx.stats, _fabric.build_ship()))

    def on_obs(self, msg) -> None:
        """Mirror the control process's obs state (between batches)."""
        _kind, want, max_events = msg
        if want:
            _obs.reset()
            _obs.enable(max_events)
        else:
            _obs.disable()
            _obs.reset()


def run_worker(wid, roots, conn, tasks_done, inherited=()) -> None:
    """Process entry point: loop until ``("stop",)``, the control
    process's end of the pipe closing, or failure.  ``roots`` is this
    matcher's entry of :func:`root_tables`.

    ``inherited`` are the control ends of every mp pipe that was open in
    the control process at the fork, this worker's own included; the
    worker closes its copies first, so that when the control process
    dies nothing holds the other end of this worker's pipe and
    ``recv_bytes`` sees EOF.

    A failure is reported down the pipe as
    ``("error", traceback_text, flight_tail)`` before the process
    exits, so the control process can surface the real exception — and
    the worker's last recorded moments — instead of a hang.
    """
    for end in inherited:
        end.close()
    # Obs module state arrived by fork inheritance from the control
    # process; start clean and let the explicit ("obs", ...) protocol
    # drive it, so worker captures never alias the parent's buffers.
    _obs.disable()
    _obs.reset()
    _flight.reset()
    _flight.record("mp.worker", "start", {"wid": wid, "pid": os.getpid()})
    state = _WorkerState(wid, roots, conn, tasks_done)
    try:
        while True:
            try:
                msg = pickle.loads(conn.recv_bytes())
            except EOFError:
                _flight.record("mp.worker", "orphaned", {"wid": wid})
                break
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
        _flight.record("mp.worker", "error", {"wid": wid, "error": repr(exc)})
        try:
            state.reply(("error", traceback.format_exc(),
                         _flight.tail(_fabric.SHIP_FLIGHT_TAIL)))
        finally:
            raise
