"""The multiprocess match backend — real CPUs, no GIL, measured speedup.

:class:`ProcessMatcher` is the drop-in matcher the threaded
:class:`~repro.parallel.engine.ParallelMatcher` honestly could not be
under CPython's GIL: ``k`` *matchers*, each owning whole productions
(production ``i`` belongs to matcher ``i % k``).  Matcher 0 is the
control process itself; matchers ``1 … k-1`` are *match processes*
forked from it, named ``match-1 …``, sharing the compiled Rete network
read-only through fork (copy-on-write pages, nothing pickled).  Beta
nodes are never shared between productions (paper footnote 6), so a
production's activations all run in its owner, in the sequential
engine's order; no line needs a lock and no task crosses between
matchers.

Control flow per WM-change batch — at most one round trip:

1. the control process runs each change through the alpha network
   once (counting it in its own :class:`MatchStats`) and gives each
   matcher the ids of the alpha terminals passed that have roots on it;
2. it posts one ``changes`` message to each forked worker that has
   hits (a batch without them sends nothing): an add carries its
   WME, which the worker keeps, a delete only its timetag;
3. it drains matcher 0's share itself, through the same
   :meth:`.worker.Share.drain` a worker runs, while the workers drain
   theirs — that share never sees pickle, pipe or reply;
4. each worker expands each change's hits into its roots and drains
   them to quiescence, change by change, on its own stack, and posts
   one ``deltas`` reply of timetags;
5. the control process waits for one reply from each worker it wrote
   to and rebuilds their tokens from the WMEs it routed.  Each
   production's deltas arrive in sequential order, so the interpreter
   keeps its strict conflict set (``strict_cs = True``), and the merged
   :class:`MatchStats` equal the sequential engine's field for field.

The split is by production, so a program whose work sits in one
production runs it on one matcher: there is no parallelism inside a
production.  ``n_workers = 1`` forks nothing.

Match stats and counters are not collected per batch: reading
:attr:`ProcessMatcher.stats` or :attr:`~ProcessMatcher.ipc_counters`
after a batch takes one ``("report", seq)`` round trip, and ``close``
takes the last one.  While the obs bus is on, every batch that wrote to
a worker ends with that round trip, so each worker ships its spans once
per batch (worker protocol: :mod:`.worker`); matcher 0 records straight
onto this process's bus, its batch spans on lane ``match-0``.

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
from typing import Any, Dict, List, Optional, Tuple

from ...obs import context as _context
from ...obs import events as _obs
from ...obs import fabric as _fabric
from ...obs import flight as _flight
from ...obs.watchdog import StallWatchdog
from ...ops5.wme import WME, WMEChange
from ...rete import kernel
from ...rete.matcher import Matcher
from ...rete.network import ReteNetwork
from ...rete.nodes import CSDelta
from ...rete.stats import MatchStats
from .worker import Share, root_tables, run_worker

#: Process-unique batch sequence numbers, shared by every ProcessMatcher
#: in this control process.  The seq is the stitch key pairing dispatch
#: spans with worker batch spans; a server hosting several mp sessions
#: has all their workers on one bus, so per-matcher counters would
#: collide (two sessions' "seq 1" cross-linking each other's batches).
_GLOBAL_SEQ = itertools.count(1)

#: The control end of every live worker pipe in this process, of every
#: ProcessMatcher.  A worker closes its inherited copies right after the
#: fork (:func:`.worker.run_worker`): a copy kept open in any child
#: would hide the control process's death from the worker it leads to.
_CONTROL_ENDS: List[Any] = []


def mp_supported() -> bool:
    """Whether this platform can run the multiprocess backend."""
    return "fork" in multiprocessing.get_all_start_methods()


class ProcessMatcher(Matcher):
    """Drop-in multiprocess matcher for the interpreter (`engine=mp`).

    ``n_workers`` is the number of matchers, the control process
    included: ``k - 1`` processes are forked.  The lock-scheme,
    queue-count and line-count axes disappear — a matcher's memories
    are its own, and each forked worker has one duplex pipe, down which
    every message is one pickle (``send_bytes``).
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
        tables = root_tables(network, n_workers)
        #: Alpha id -> the matchers that terminal has roots on, in order.
        self._reach = {
            terminal.alpha_id: [wid for wid, roots in enumerate(tables)
                                if terminal.alpha_id in roots]
            for terminal in network.alpha_terminals
        }
        ctx = multiprocessing.get_context("fork")
        self._seq = 0
        #: Replies the current batch still owes (the watchdog's gauge).
        self._owed = 0
        self._shutdown = False
        #: The alpha work of every change, counted here — the one place
        #: it runs.
        self._alpha_stats = MatchStats()
        #: Each forked worker's cumulative stats as of the last
        #: ``report`` round trip (replaced, not summed).
        self._worker_stats: Dict[int, MatchStats] = {}
        #: Whether a forked worker has run a batch since the last
        #: ``report`` round trip.
        self._unreported = False
        #: Whether the workers currently mirror the control process's
        #: obs flag (synced lazily at each batch boundary).
        self._workers_obs = False
        #: Timetag -> WME of every routed WME still in working memory.
        self._wmes: Dict[int, WME] = {}
        #: Drained tasks, one slot per matcher (the watchdog's progress);
        #: this process writes slot 0.
        self._tasks_done = ctx.RawArray("q", n_workers)
        #: Matcher 0's share, drained here.
        self._share = Share(0, tables[0], self._tasks_done)
        #: Matchers 1..k-1, forked: matcher ``wid`` is ``_procs[wid - 1]``
        #: and its pipe ``_conns[wid - 1]``.
        self._conns, self._procs = [], []
        for wid in range(1, n_workers):
            # Only the worker keeps its end: its death is an EOF or a
            # broken pipe here, and this process's death one there.
            conn, theirs = ctx.Pipe()
            _CONTROL_ENDS.append(conn)
            proc = ctx.Process(target=run_worker, name=f"match-{wid}", daemon=True,
                               args=(wid, tables[wid], theirs, self._tasks_done,
                                     tuple(_CONTROL_ENDS)))
            proc.start()
            theirs.close()
            self._conns.append(conn)
            self._procs.append(proc)
        # What _next_reply sleeps on: a reply or a death.
        self._wid_of_fd = {conn.fileno(): wid for wid, conn in enumerate(self._conns, 1)}
        self._reply_or_death = select.poll()
        for fd in (*self._wid_of_fd, *(proc.sentinel for proc in self._procs)):
            self._reply_or_death.register(fd, select.POLLIN)
        if watchdog_s:
            self.watchdog = StallWatchdog(
                self._watchdog_probe,
                engine="mp",
                stall_after_s=watchdog_s,
            ).start()

    # -- control-process side -----------------------------------------------

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Send the batch's alpha hits to the matchers they have roots
        on, drain matcher 0's here, wait for each worker's reply, and
        return the deltas of all of them."""
        if self._shutdown:
            raise RuntimeError("matcher already closed")
        obs_on = _obs.ENABLED
        if obs_on != self._workers_obs:
            # Safe to interleave: workers are idle on recv between
            # batches, so the obs message cannot land mid-drain.
            cap = _obs.current_max_events()
            for wid in range(1, self.n_workers):
                self._post(wid, ("obs", obs_on, cap))
            self._workers_obs = obs_on
        ctx_ids = _context.current_ids() if obs_on else None
        if obs_on:
            t0 = _obs.now()
        seq = self._seq = next(_GLOBAL_SEQ)
        _flight.record("mp", "dispatch", {"seq": seq, "changes": len(changes)})
        shares, removed = self._route(changes)
        mine = shares[0]
        recipients = [wid for wid in range(1, self.n_workers) if shares[wid]]
        if not recipients:
            # A dead worker must not pass unseen.
            self._check_alive()
            if not mine:
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
        deltas = []
        if mine:
            # Matcher 0's share, while the workers drain theirs.
            try:
                deltas = self._share.drain(seq, mine, ctx_ids)
            except BaseException:
                self._stop()
                raise
        deltas += self._collect()
        for timetag in removed:
            del self._wmes[timetag]
        if recipients:
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
        """Send ``msg`` down worker ``wid``'s pipe, billing its bytes
        while timed; a dead worker's pipe raises the typed error."""
        data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        try:
            self._conns[wid - 1].send_bytes(data)
        except OSError:
            self._raise_worker_failure(self._procs[wid - 1])
        if self.timed:
            self.ipc_bytes += len(data)

    def _route(self, changes: List[WMEChange]) -> Tuple[List[list], List[int]]:
        """Each matcher's share of the batch — per change that reaches
        it, ``(sign, wme or timetag, [alpha_id, ...])``, the alpha
        terminals the change passed that have roots on the matcher —
        and the timetags of the routed WMEs the batch removes."""
        n = self.n_workers
        network, stats = self.network, self._alpha_stats
        reach, wmes = self._reach, self._wmes
        shares: List[list] = [[] for _ in range(n)]
        removed: List[int] = []
        for change in changes:
            sign, wme = change.sign, change.wme
            hits, _n_tests = kernel.alpha_pass(network, stats, wme)
            if not hits:
                continue
            if sign > 0:
                wmes[wme.timetag] = item = wme
            else:
                item = wme.timetag
                removed.append(item)
            mine: List[list] = [[] for _ in range(n)]
            for terminal in hits:
                alpha_id = terminal.alpha_id
                for wid in reach[alpha_id]:
                    mine[wid].append(alpha_id)
            for wid, share in enumerate(mine):
                if share:
                    shares[wid].append((sign, item, share))
        return shares, removed

    def _collect(self) -> List[CSDelta]:
        """Merge one ``deltas`` reply from each worker the batch was
        sent to; returns their deltas.  A reply left over from an
        interrupted earlier batch carries an older seq and is dropped."""
        deltas: List[CSDelta] = []
        terminals, wmes = self.network.terminals, self._wmes
        while self._owed:
            wid, msg = self._next_reply()
            if msg[0] != "deltas":
                continue
            _kind, seq, payload, events = msg
            proc = self._procs[wid - 1]
            _fabric.file_tail(proc.pid, proc.name, events)
            if seq != self._seq:
                continue
            self._owed -= 1
            deltas.extend(
                (terminals[name].production, (tuple([wmes[t] for t in key]), key), sign)
                for name, key, sign in payload
            )
        return deltas

    def _check_alive(self) -> None:
        for proc in self._procs:
            if proc.exitcode is not None:
                self._raise_worker_failure(proc)

    def _next_reply(self) -> Tuple[int, tuple]:
        """The next ``(wid, reply)``.  A worker that died owes a reply
        that will never come, so this sleeps on *a reply or a death*.
        A worker's ``error`` report is raised here, with its traceback
        and flight tail."""
        while True:
            for fd, _event in self._reply_or_death.poll():
                wid = self._wid_of_fd.get(fd)
                if wid is None:
                    continue  # a sentinel: see below
                try:
                    data = self._conns[wid - 1].recv_bytes()
                except (EOFError, OSError):
                    self._raise_worker_failure(self._procs[wid - 1])
                if self.timed:
                    self.ipc_bytes += len(data)
                msg = pickle.loads(data)
                if msg[0] == "error":
                    _flight.record("mp", "worker_error", {"wid": wid})
                    _flight.dump_on_error("worker_error")
                    self._stop()
                    raise RuntimeError(
                        "match process failed\n" + self._format_error(msg[1], msg[2])
                    )
                return wid, msg
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
        proc.join(timeout=5.0)  # its pipe closes before it is reaped
        # What the worker said on its way out, if it lived long enough
        # to say it; else the last tail it shipped.
        detail = self._format_error("", _flight.remote_tail(proc.pid))
        conn = self._conns[self._procs.index(proc)]
        try:
            while conn.poll():
                msg = pickle.loads(conn.recv_bytes())
                if msg[0] == "error":
                    detail = f"\n{self._format_error(msg[1], msg[2])}"
        except (EOFError, OSError):
            pass
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
        for wid in range(1, self.n_workers):
            self._post(wid, ("report", seq))
        seen = 0
        while seen < len(self._procs):
            wid, msg = self._next_reply()
            if msg[0] != "report" or msg[1] != seq:
                # A reply from an interrupted earlier batch; ignore.
                continue
            _kind, _seq, stats, ship = msg
            seen += 1
            _fabric.file_ship(self._procs[wid - 1].name, ship)
            self._worker_stats[wid] = stats
        self._unreported = False

    def _watchdog_probe(self) -> Dict[str, Any]:
        """Cross-process stall probe: the replies the batch still owes
        are the pending-work gauge (OS pipes expose no depth), the sum
        of the matchers' drained-task slots the progress signal."""
        alive = {
            proc.name: "alive" if proc.exitcode is None else f"exit {proc.exitcode}"
            for proc in self._procs
        }
        return {
            "tasks_done": sum(self._tasks_done),
            "queues": [{"name": "replies_owed", "depth": self._owed}],
            "lock_holders": {},
            "extra": {"workers": alive, "seq": self._seq},
        }

    def close(self) -> None:
        """Take the last report, then stop the forked match processes
        (the control process's duty); stats read afterwards stay exact.  A
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
        for conn, proc in zip(self._conns, self._procs):
            if proc.exitcode is None:
                try:
                    conn.send_bytes(pickle.dumps(("stop",)))
                except OSError:
                    pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.exitcode is None:  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        _CONTROL_ENDS[:] = [end for end in _CONTROL_ENDS if not end.closed]

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self._stop()
        except Exception:
            pass

    # -- aggregated measurements ---------------------------------------------

    @property
    def stats(self) -> MatchStats:
        """Merged match statistics: the alpha work and matcher 0's share
        counted here plus every forked worker's, as of the last batch."""
        self._report()
        merged = MatchStats().merge(self._alpha_stats).merge(self._share.ctx.stats)
        for stats in self._worker_stats.values():
            merged.merge(stats)
        return merged

    @property
    def ipc_counters(self) -> Dict[str, int]:
        """What the matchers ran across all batches: ``tasks_local``, the
        activations of all ``k`` shares, as of the last batch."""
        self._report()
        return {"tasks_local": self._share.ctx.stats.node_activations + sum(
            stats.node_activations for stats in self._worker_stats.values())}
