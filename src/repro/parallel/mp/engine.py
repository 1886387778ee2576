"""The multiprocess match backend — real CPUs, no GIL, measured speedup.

:class:`ProcessMatcher` is the drop-in matcher the threaded
:class:`~repro.parallel.engine.ParallelMatcher` honestly could not be
under CPython's GIL: ``k`` *match processes* forked from the control
process, sharing the compiled Rete network read-only through fork
(copy-on-write pages, nothing pickled), each owning whole productions:
production ``i`` belongs to worker ``i % k``.  Beta nodes are never
shared between productions (paper footnote 6), so a production's
activations all run in its owner, in the sequential engine's order;
no line needs a lock and no task crosses between workers.

Control flow per WM-change batch — one round trip:

1. the control process runs each change through the alpha network
   once (counting it in its own :class:`MatchStats`) and sends each
   root activation to the worker owning the root's production, one
   ``changes`` message per worker that has roots (a batch without
   roots sends nothing);
2. each worker drains each change's roots to quiescence in turn, on
   its own stack, and posts one ``deltas`` reply;
3. the control process waits for one reply from each worker it wrote
   to and returns their deltas.  Each production's deltas arrive in
   sequential order, so the interpreter keeps its strict conflict set
   (``strict_cs = True``), and the merged :class:`MatchStats` equal the
   sequential engine's field for field.

The split is by production, so a program whose work sits in one
production runs it on one worker: there is no parallelism inside a
production.

Match stats and counters are not collected per batch: reading
:attr:`ProcessMatcher.stats` or :attr:`~ProcessMatcher.ipc_counters`
after a batch takes one ``("report", seq)`` round trip, and ``close``
takes the last one.  While the obs bus is on, every batch ends with
that round trip, so each worker ships its spans once per batch
(worker protocol: :mod:`.worker`).

Requires the ``fork`` start method (Linux/macOS): compiled networks
hold closures that cannot cross a ``spawn`` boundary.  Call
:func:`mp_supported` before constructing one; on unsupported platforms
the constructor raises ``RuntimeError``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import select
from typing import Dict, List, Optional

from ...obs import context as _context
from ...obs import events as _obs
from ...obs import fabric as _fabric
from ...obs import flight as _flight
from ...obs.watchdog import ProbeSample, StallWatchdog
from ...ops5.wme import WMEChange
from ...rete import kernel
from ...rete.matcher import Matcher
from ...rete.network import ReteNetwork
from ...rete.nodes import CSDelta
from ...rete.stats import MatchStats
from .worker import run_worker

#: Process-unique batch sequence numbers, shared by every ProcessMatcher
#: in this control process.  The seq is the stitch key pairing dispatch
#: spans with worker batch spans; a server hosting several mp sessions
#: has all their workers on one bus, so per-matcher counters would
#: collide (two sessions' "seq 1" cross-linking each other's batches).
_GLOBAL_SEQ = itertools.count(1)


def mp_supported() -> bool:
    """Whether this platform can run the multiprocess backend."""
    return "fork" in multiprocessing.get_all_start_methods()


class ProcessMatcher(Matcher):
    """Drop-in multiprocess matcher for the interpreter (`engine=mp`).

    ``n_workers`` is the paper's "k" of "1+k"; the lock-scheme,
    queue-count and line-count axes disappear — a worker's memories are
    its own, and each worker has exactly one inbound pipe.
    """

    #: Each production's deltas arrive in sequential order.
    strict_cs = True

    def __init__(
        self,
        network: ReteNetwork,
        n_workers: int = 2,
        watchdog_s: Optional[float] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one match process")
        if not mp_supported():
            raise RuntimeError(
                "the mp engine needs the 'fork' start method; "
                "use engine='threaded' on this platform"
            )
        self.network = network
        self.n_workers = n_workers
        _flight.note_engine("mp", n_workers)
        #: Beta node id -> the worker owning its production: production
        #: ``i`` belongs to worker ``i % n_workers``.
        worker_of = {
            prod.name: i % n_workers for i, prod in enumerate(network.productions)
        }
        self._owner = {
            node_id: worker_of[name] for node_id, name in network.node_owner.items()
        }
        ctx = multiprocessing.get_context("fork")
        self._inboxes = [ctx.SimpleQueue() for _ in range(n_workers)]
        self._results = ctx.SimpleQueue()
        self._seq = 0
        #: Replies the current batch still owes (the watchdog's gauge).
        self._owed = 0
        self._shutdown = False
        #: The alpha work of every change, counted here — the one place
        #: it runs.
        self._alpha_stats = MatchStats()
        #: Each worker's cumulative stats as of the last ``report``
        #: round trip (replaced, not summed).
        self._worker_stats: Dict[int, MatchStats] = {}
        #: Whether a batch has run since the last ``report`` round trip.
        self._unreported = False
        #: Whether the workers currently mirror the control process's
        #: obs flag (synced lazily at each batch boundary).
        self._workers_obs = False
        #: Shared cumulative drained-task counter — the watchdog's
        #: cross-process progress signal.
        self._tasks_done = ctx.Value("q", 0)
        self._procs = [
            ctx.Process(
                target=run_worker,
                args=(wid, network, self._inboxes[wid], self._results,
                      self._tasks_done),
                daemon=True,
                name=f"match-{wid}",
            )
            for wid in range(n_workers)
        ]
        for proc in self._procs:
            proc.start()
        # What _next_reply sleeps on: a reply or a death.  SimpleQueue
        # offers nothing public to wait on (``_reader`` is the read end
        # of its pipe), and its ``empty()`` builds a selector per call.
        self._reply_fd = self._results._reader.fileno()
        self._reply_or_death = select.poll()
        for fd in (self._reply_fd, *(proc.sentinel for proc in self._procs)):
            self._reply_or_death.register(fd, select.POLLIN)
        if watchdog_s:
            self.watchdog = StallWatchdog(
                self._watchdog_probe,
                engine="mp",
                stall_after_s=watchdog_s,
            ).start()

    # -- control-process side -----------------------------------------------

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Send the batch's roots to their productions' owners, wait
        for each one's reply, return the deltas the replies carried."""
        if self._shutdown:
            raise RuntimeError("matcher already closed")
        obs_on = _obs.ENABLED
        if obs_on != self._workers_obs:
            # Safe to interleave: workers are idle on inbox.get()
            # between batches, so the obs message cannot land mid-drain.
            cap = _obs.current_max_events()
            for wid in range(self.n_workers):
                self._post(wid, ("obs", obs_on, cap))
            self._workers_obs = obs_on
        ctx_ids = _context.current_ids() if obs_on else None
        if obs_on:
            t0 = _obs.now()
        seq = self._seq = next(_GLOBAL_SEQ)
        _flight.record("mp", "dispatch", {"seq": seq, "changes": len(changes)})
        shares = self._route(changes)
        recipients = [wid for wid, share in enumerate(shares) if share]
        if not recipients:
            # Nothing to match, but a dead worker must not pass unseen.
            self._check_alive()
            return []
        # The request's ids ride the batch message as a fourth element;
        # each worker stamps them into its batch span, which is what
        # gives stitched traces request-scoped worker lanes.
        self._owed = len(recipients)
        for wid in recipients:
            self._post(wid, ("changes", seq, shares[wid], ctx_ids))
        if obs_on:
            t1 = _obs.now()
            # "seq" is the stitch key pairing this span with the worker
            # batch spans it triggered (repro.obs.export.chrome_trace).
            _obs.span("mp", "dispatch", t0, t1,
                      args=_context.tag({"changes": len(changes), "seq": seq}))
            _obs.count("mp.batches")
            _obs.count("mp.changes", len(changes))
        deltas = self._collect()
        self._unreported = True
        if obs_on:
            t2 = _obs.now()
            _obs.span("mp", "quiesce_wait", t1, t2, args={"deltas": len(deltas)})
            # A traced batch is filed whole before it returns: one ship
            # per worker, so a snapshot taken now covers every process.
            self._report()
            t3 = _obs.now()
            _obs.span("mp", "report", t2, t3)
            _obs.span("mp", "parallel_batch", t0, t3,
                      args=_context.tag({"changes": len(changes)}))
        return deltas

    def _post(self, wid: int, msg: tuple) -> None:
        """Put ``msg`` on worker ``wid``'s inbox, billing its bytes
        while timed."""
        self._inboxes[wid].put(msg)
        if self.timed:
            self.ipc_bytes += len(pickle.dumps(msg))

    def _route(self, changes: List[WMEChange]) -> List[list]:
        """Each worker's share of the batch: per change with roots for
        it, ``(sign, wme, [(node_id, side), ...])``, each root going to
        the worker that owns its production."""
        n = self.n_workers
        owner = self._owner
        shares: List[list] = [[] for _ in range(n)]
        for change in changes:
            sign, wme = change.sign, change.wme
            roots: List[tuple] = []
            kernel.enter_change(self.network, self._alpha_stats, sign, wme, roots.extend)
            if not roots:
                continue
            mine: List[list] = [[] for _ in range(n)]
            for node, side, _sign, _token in roots:
                node_id = node.node_id
                mine[owner[node_id]].append((node_id, side))
            for wid, share in enumerate(mine):
                if share:
                    shares[wid].append((sign, wme, share))
        return shares

    def _collect(self) -> List[CSDelta]:
        """Merge one ``deltas`` reply from each worker the batch was
        sent to; returns their deltas.  A reply left over from an
        interrupted earlier batch carries an older seq and is dropped."""
        deltas: List[CSDelta] = []
        terminals = self.network.terminals
        while self._owed:
            msg = self._next_reply()
            if msg[0] != "deltas":
                continue
            _kind, wid, seq, payload, ship = msg
            if ship is not None:
                _fabric.file_ship(self._procs[wid].name, ship)
            if seq != self._seq:
                continue
            self._owed -= 1
            deltas.extend(
                (terminals[name].production, token, sign) for name, token, sign in payload
            )
        return deltas

    def _check_alive(self) -> None:
        for proc in self._procs:
            if proc.exitcode is not None:
                self._raise_worker_failure(proc)

    def _next_reply(self):
        """The next message on the results queue.  A worker that died
        owes a reply that will never come, so this sleeps on *a reply
        or a death* rather than in ``get()``.  A worker's ``error``
        report is raised here, with its traceback and flight tail."""
        while True:
            for fd, _event in self._reply_or_death.poll():
                if fd == self._reply_fd:
                    # The one reader of the results pipe: read the bytes
                    # themselves, so what they weigh is known for free.
                    data = self._results._reader.recv_bytes()
                    if self.timed:
                        self.ipc_bytes += len(data)
                    msg = pickle.loads(data)
                    if msg[0] == "error":
                        _flight.record("mp", "worker_error", {"wid": msg[1]})
                        _flight.dump_on_error("worker_error")
                        self._stop()
                        raise RuntimeError(
                            "match process failed\n"
                            + self._format_error(msg[2], msg[3])
                        )
                    return msg
            # A sentinel fired — a moment before the exit status can be
            # collected; until then this loop comes back here.
            self._check_alive()

    @staticmethod
    def _format_error(detail: str, tail) -> str:
        """``detail`` plus a worker's flight-recorder tail (its last
        recorded moments survive the process)."""
        if tail:
            lines = [
                f"  {event['engine']}.{event['event']} {event['detail'] or {}}"
                for event in tail
            ]
            detail += (
                f"\nworker flight recorder (last {len(tail)} events):\n"
                + "\n".join(lines)
            )
        return detail

    def _raise_worker_failure(self, proc) -> None:
        # What the worker said on its way out, if it lived long enough
        # to say it; else the last tail it shipped with a report.
        detail = self._format_error("", _flight.remote_tail(proc.pid))
        while not self._results.empty():
            msg = self._results.get()
            if msg[0] == "error":
                detail = f"\n{self._format_error(msg[2], msg[3])}"
        _flight.record("mp", "worker_death",
                       {"proc": proc.name, "exitcode": proc.exitcode})
        _flight.dump_on_error("worker_death")
        self._stop()
        raise RuntimeError(
            f"match process {proc.name} died (exit {proc.exitcode}){detail}"
        )

    def _report(self) -> None:
        """One ``("report", seq)`` round trip, if a batch ran since the
        last one and the workers are still there to ask: every worker's
        cumulative stats and its ship."""
        if not self._unreported or self._shutdown:
            return
        seq = self._seq
        for wid in range(self.n_workers):
            self._post(wid, ("report", seq))
        seen = 0
        while seen < self.n_workers:
            msg = self._next_reply()
            if msg[0] != "report" or msg[2] != seq:
                # A reply from an interrupted earlier batch; ignore.
                continue
            _kind, wid, _seq, stats, ship = msg
            seen += 1
            _fabric.file_ship(self._procs[wid].name, ship)
            self._worker_stats[wid] = stats
        self._unreported = False

    def _watchdog_probe(self) -> ProbeSample:
        """Cross-process stall probe: the replies the batch still owes
        are the pending-work gauge (OS pipes expose no depth), the
        shared drained-task counter the progress signal."""
        alive = {
            proc.name: "alive" if proc.exitcode is None else f"exit {proc.exitcode}"
            for proc in self._procs
        }
        return ProbeSample(
            tasks_done=self._tasks_done.value,
            queues=[("replies_owed", self._owed)],
            lock_holders={},
            extra={"workers": alive, "seq": self._seq},
        )

    def close(self) -> None:
        """Take the last report, then stop the match processes (the
        control process's duty); stats read afterwards stay exact.  A
        worker that died since the last batch leaves them as of the
        report before: its death is in the flight ring, and closing
        never raises."""
        try:
            self._report()
        except RuntimeError:
            pass
        finally:
            self._stop()

    def _stop(self) -> None:
        """Kill the match processes without asking them anything."""
        if self._shutdown:
            return
        self._shutdown = True
        if self.watchdog is not None:
            self.watchdog.stop()
        for inbox, proc in zip(self._inboxes, self._procs):
            if proc.exitcode is None:
                try:
                    inbox.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.exitcode is None:  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        for q in (*self._inboxes, self._results):
            q.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self._stop()
        except Exception:
            pass

    # -- aggregated measurements ---------------------------------------------

    @property
    def stats(self) -> MatchStats:
        """Merged match statistics: the alpha work counted here plus
        every worker's, as of the last batch."""
        self._report()
        merged = MatchStats().merge(self._alpha_stats)
        for stats in self._worker_stats.values():
            merged.merge(stats)
        return merged

    @property
    def ipc_counters(self) -> Dict[str, int]:
        """What the workers ran across all batches: ``tasks_local``, the
        activations, as of the last batch."""
        self._report()
        return {"tasks_local": sum(
            stats.node_activations for stats in self._worker_stats.values())}
