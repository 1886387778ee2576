"""The multiprocess match backend — real CPUs, no GIL, measured speedup.

:class:`ProcessMatcher` is the drop-in matcher the threaded
:class:`~repro.parallel.engine.ParallelMatcher` honestly could not be
under CPython's GIL: ``k`` *match processes* forked from the control
process, sharing the compiled Rete network read-only through fork
(copy-on-write pages, nothing pickled), with the token hash memories
partitioned across workers by line ownership
(:class:`~repro.parallel.mp.shard.ShardMap`) instead of guarded by
line locks.

Control flow per WM-change batch, mirroring §3.1/§3.2 with processes
for threads and shard routing for line locks — one round trip:

1. the control process runs each change through the alpha network
   once (counting it in its own :class:`MatchStats`) and routes each
   root activation once: a line's roots to the line's owner, a
   change's non-line roots to its designated worker (``i % n``);
2. it adds one TaskCount unit per recipient and sends each worker that
   has roots one ``changes`` message (a batch without roots sends
   nothing);
3. each worker drains its roots, forwarding the child activations that
   land on a peer's shard, one message per peer per stretch
   (increment-before-send, decrement-after-drain), and posts the
   drain's conflict-set deltas *before* it releases its units;
4. the worker whose release brings the shared TaskCount to zero posts
   ``("quiet", seq, report)`` — the paper's termination detection, now
   cross-process.  The control process merges reports as they arrive
   and returns at ``quiet``; the merged deltas feed the count-based
   conflict set exactly like the threaded engine's (``strict_cs =
   False``; deltas arrive unordered).

Match stats and IPC counters are not collected per batch: reading
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
from ...rete.memories import key_hash
from ...rete.network import ReteNetwork
from ...rete.nodes import CSDelta
from ...rete.stats import MatchStats
from .shard import ShardMap
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

    Parameters mirror the paper's axes where they survive the
    translation: ``n_workers`` is the "k" of "1+k"; ``n_lines`` sizes
    both the hash tables and the shard map (the lock-scheme and
    queue-count axes disappear — lines are lock-free by ownership and
    each worker has exactly one inbound pipe).  Routing each line to
    its :class:`ShardMap` owner is what replaces the locks.
    """

    #: Deltas arrive unordered; the interpreter must use a count-based
    #: conflict set and validate after each batch (same as threaded).
    strict_cs = False

    def __init__(
        self,
        network: ReteNetwork,
        n_workers: int = 2,
        n_lines: int = 1024,
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
        # Built before the fork, so every worker inherits the identical map.
        self.shard = ShardMap(n_lines=n_lines, n_workers=n_workers)
        ctx = multiprocessing.get_context("fork")
        self._inboxes = [ctx.SimpleQueue() for _ in range(n_workers)]
        self._results = ctx.SimpleQueue()
        self._taskcount = ctx.Value("q", 0)
        self._seq = 0
        self._shutdown = False
        #: The alpha work of every change, counted here — the one place
        #: it runs.
        self._alpha_stats = MatchStats()
        #: Each worker's cumulative stats as of the last ``report``
        #: round trip (replaced, not summed).
        self._worker_stats: Dict[int, MatchStats] = {}
        self._ipc_totals: Dict[str, int] = {}
        #: Whether a batch has run since the last ``report`` round trip.
        self._unreported = False
        #: Each worker's latest conjugate pending-delete count.
        self._pending = [0] * n_workers
        #: Whether the workers currently mirror the control process's
        #: obs flag (synced lazily at each batch boundary).
        self._workers_obs = False
        #: Shared cumulative drained-task counter — the watchdog's
        #: cross-process progress signal.
        self._tasks_done = ctx.Value("q", 0)
        self._procs = [
            ctx.Process(
                target=run_worker,
                args=(wid, network, self.shard, self._inboxes,
                      self._results, self._taskcount, self._tasks_done),
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
        """Route the batch's roots, wait for quiescence, return the
        deltas the workers' reports carried."""
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
        with self._taskcount.get_lock():
            self._taskcount.value += len(recipients)
        # The request's ids ride the batch message as a fourth element;
        # each worker stamps them into its batch span, which is what
        # gives stitched traces request-scoped worker lanes.
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
        deltas = self._wait_quiescent()
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
        it, ``(sign, wme, [(node_id, side), ...])``.  A root on a line
        goes to the line's owner, any other root to the change's
        designated worker.  A change's roots share a handful of keys,
        so each distinct key is hashed once."""
        n = self.n_workers
        shares: List[list] = [[] for _ in range(n)]
        route = self.shard.route_hashed
        for i, change in enumerate(changes):
            sign, wme = change.sign, change.wme
            roots: List[tuple] = []
            kernel.enter_change(self.network, self._alpha_stats, sign, wme, roots.extend)
            if not roots:
                continue
            mine: List[list] = [[] for _ in range(n)]
            hashes: Dict[tuple, int] = {}
            for node, side, _sign, token in roots:
                if node.uses_line():
                    key = node.key_for(side, token)
                    h = hashes.get(key)
                    if h is None:
                        h = hashes[key] = key_hash(key)
                    owner = route(node.node_id, h)
                else:
                    owner = i % n
                mine[owner].append((node.node_id, side))
            for wid, share in enumerate(mine):
                if share:
                    shares[wid].append((sign, wme, share))
        return shares

    def _wait_quiescent(self) -> List[CSDelta]:
        """Merge the batch's reports until the worker that brought
        TaskCount to zero says so; returns their deltas.  A report or
        ``quiet`` left over from an interrupted earlier batch carries an
        older seq and is dropped."""
        deltas: List[CSDelta] = []
        while True:
            msg = self._next_reply()
            kind = msg[0]
            if kind == "deltas":
                self._merge(msg, deltas)
            elif kind == "quiet":
                if msg[2] is not None:
                    self._merge(msg[2], deltas)
                if msg[1] == self._seq:
                    break
        pending = sum(self._pending)
        if pending:
            raise RuntimeError(f"{pending} conjugate deletes left parked")
        return deltas

    def _merge(self, msg, deltas: List[CSDelta]) -> None:
        """File one worker's ``deltas`` report."""
        _kind, wid, seq, payload, pending, ship = msg
        if ship is not None:
            _fabric.file_ship(self._procs[wid].name, ship)
        if seq != self._seq:
            return
        self._pending[wid] = pending
        terminals = self.network.terminals
        deltas.extend(
            (terminals[name].production, token, sign) for name, token, sign in payload
        )

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
        cumulative stats, its IPC counters since the last one, and its
        ship."""
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
            _kind, wid, _seq, stats, counters, ship = msg
            seen += 1
            _fabric.file_ship(self._procs[wid].name, ship)
            self._worker_stats[wid] = stats
            for name, n in counters.items():
                self._ipc_totals[name] = self._ipc_totals.get(name, 0) + n
                if _obs.ENABLED and n:
                    _obs.count(f"mp.{name}", n)
        self._unreported = False

    def _watchdog_probe(self) -> ProbeSample:
        """Cross-process stall probe: the shared TaskCount is the
        pending-work gauge (OS pipes expose no depth), the shared
        drained-task counter the progress signal."""
        alive = {
            proc.name: "alive" if proc.exitcode is None else f"exit {proc.exitcode}"
            for proc in self._procs
        }
        return ProbeSample(
            tasks_done=self._tasks_done.value,
            queues=[("taskcount", self._taskcount.value)],
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
        """Cumulative forward/IPC counters across all batches."""
        self._report()
        return dict(self._ipc_totals)
