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
for threads and shard routing for line locks:

1. the control process increments the shared TaskCount by the worker
   count and broadcasts the batch down every worker's pipe;
2. each worker alpha-dispatches the batch (replicated, read-only),
   keeps the root activations whose lines it owns, and drains them,
   forwarding the child activations that land on a peer's shard, one
   message per peer per stretch (increment-before-send,
   decrement-after-drain);
3. the worker whose release brings the shared TaskCount to zero posts
   ``("quiet", seq)`` — the paper's termination detection, now
   cross-process — and the control process sleeps until it arrives;
4. a ``flush`` round collects every worker's conflict-set deltas,
   match stats, and IPC counters, and the merged deltas feed the
   count-based conflict set exactly like the threaded engine's
   (``strict_cs = False``; deltas arrive unordered).

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
from ...rete.matcher import Matcher
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
    each worker has exactly one inbound pipe).  ``policy`` selects the
    shard *placement* — which worker owns each hash line
    (:mod:`repro.parallel.policy`); only the static ``place_lines``
    half applies here, since routing to a line's owner is what replaces
    the locks.
    """

    #: Deltas arrive unordered; the interpreter must use a count-based
    #: conflict set and validate after each batch (same as threaded).
    strict_cs = False

    def __init__(
        self,
        network: ReteNetwork,
        n_workers: int = 2,
        n_lines: int = 1024,
        policy: str = "round-robin",
        watchdog_s: Optional[float] = None,
        watchdog_dump: Optional[str] = None,
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
        # The placement policy is baked into the owners table here,
        # before the fork, so every worker inherits the identical map.
        self.shard = ShardMap(n_lines=n_lines, n_workers=n_workers, policy=policy)
        ctx = multiprocessing.get_context("fork")
        self._inboxes = [ctx.SimpleQueue() for _ in range(n_workers)]
        self._results = ctx.SimpleQueue()
        self._taskcount = ctx.Value("q", 0)
        self._seq = 0
        self._shutdown = False
        #: Last flush's per-worker stats snapshots (cumulative per
        #: worker; replaced, not summed, on every flush).
        self._worker_stats: Dict[int, MatchStats] = {}
        self._ipc_totals: Dict[str, int] = {}
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
                dump_path=watchdog_dump,
            ).start()

    # -- control-process side -----------------------------------------------

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Broadcast the batch, wait for quiescence, merge the deltas."""
        if self._shutdown:
            raise RuntimeError("matcher already closed")
        obs_on = _obs.ENABLED
        if obs_on != self._workers_obs:
            # Safe to interleave: workers are idle on inbox.get()
            # between batches, so the obs message cannot land mid-drain.
            cap = _obs.current_max_events()
            for inbox in self._inboxes:
                inbox.put(("obs", obs_on, cap))
            self._workers_obs = obs_on
        ctx_ids = _context.current_ids() if obs_on else None
        if obs_on:
            t0 = _obs.now()
        self._seq = next(_GLOBAL_SEQ)
        _flight.record("mp", "dispatch",
                       {"seq": self._seq, "changes": len(changes)})
        payload = [(c.sign, c.wme) for c in changes]
        with self._taskcount.get_lock():
            self._taskcount.value += self.n_workers
        # The request's ids ride the batch message as a fourth element;
        # each worker stamps them into its batch span, which is what
        # gives stitched traces request-scoped worker lanes.
        for inbox in self._inboxes:
            inbox.put(("changes", self._seq, payload, ctx_ids))
        if self.timed:
            # Batch-granular IPC accounting: one pickle of the payload
            # stands in for what the pipe actually carried, times the
            # fan-out (the batch is broadcast to every worker).
            self.ipc_bytes += len(pickle.dumps(payload)) * self.n_workers
        if obs_on:
            t1 = _obs.now()
            # "seq" is the stitch key pairing this span with the worker
            # batch spans it triggered (repro.obs.export.chrome_trace).
            _obs.span("mp", "dispatch", t0, t1,
                      args=_context.tag(
                          {"changes": len(changes), "seq": self._seq}))
            _obs.count("mp.batches")
            _obs.count("mp.changes", len(changes))
        self._wait_quiescent()
        if obs_on:
            t2 = _obs.now()
            _obs.span("mp", "quiesce_wait", t1, t2)
        deltas = self._flush()
        if obs_on:
            t3 = _obs.now()
            _obs.span("mp", "merge", t2, t3, args={"deltas": len(deltas)})
            _obs.span("mp", "parallel_batch", t0, t3,
                      args=_context.tag({"changes": len(changes)}))
        return deltas

    def _wait_quiescent(self) -> None:
        """Sleep until the worker that brought TaskCount to zero says
        so.  A ``quiet`` or flush reply left over from an interrupted
        earlier batch carries an older seq and is dropped."""
        while True:
            msg = self._next_reply()
            if msg[0] == "quiet" and msg[1] == self._seq:
                return

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
                    msg = self._results.get()
                    if msg[0] == "error":
                        _flight.record("mp", "worker_error", {"wid": msg[1]})
                        _flight.dump_on_error("worker_error")
                        self.close()
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
        # to say it; else the last tail it shipped with a flush reply.
        detail = self._format_error("", _flight.remote_tail(proc.pid))
        while not self._results.empty():
            msg = self._results.get()
            if msg[0] == "error":
                detail = f"\n{self._format_error(msg[2], msg[3])}"
        _flight.record("mp", "worker_death",
                       {"proc": proc.name, "exitcode": proc.exitcode})
        _flight.dump_on_error("worker_death")
        self.close()
        raise RuntimeError(
            f"match process {proc.name} died (exit {proc.exitcode}){detail}"
        )

    def _flush(self) -> List[CSDelta]:
        for inbox in self._inboxes:
            inbox.put(("flush", self._seq))
        terminals = self.network.terminals
        deltas: List[CSDelta] = []
        pending_total = 0
        seen = 0
        while seen < self.n_workers:
            msg = self._next_reply()
            if msg[0] != "deltas" or msg[2] != self._seq:
                # A reply from an interrupted earlier batch; ignore.
                continue
            _kind, wid, _seq, payload, stats, counters, pending, ship = msg
            seen += 1
            pending_total += pending
            if self.timed:
                # Reply-direction IPC bytes (deltas + stats + ship),
                # re-pickled once per worker per batch.
                self.ipc_bytes += len(pickle.dumps((payload, stats, counters, ship)))
            _fabric.file_ship(self._procs[wid].name, ship)
            self._worker_stats[wid] = stats
            for name, n in counters.items():
                self._ipc_totals[name] = self._ipc_totals.get(name, 0) + n
                if _obs.ENABLED and n:
                    _obs.count(f"mp.{name}", n)
            for prod_name, token, sign in payload:
                deltas.append((terminals[prod_name].production, token, sign))
        if pending_total:
            raise RuntimeError(
                f"{pending_total} conjugate deletes left parked"
            )
        return deltas

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
        """Kill the match processes (the control process's duty)."""
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
            self.close()
        except Exception:
            pass

    # -- aggregated measurements ---------------------------------------------

    @property
    def stats(self) -> MatchStats:
        """Merged match statistics across workers, as of the last flush."""
        merged = MatchStats()
        for stats in self._worker_stats.values():
            merged.merge(stats)
        return merged

    @property
    def ipc_counters(self) -> Dict[str, int]:
        """Cumulative dispatch/forward/IPC counters across all batches."""
        return dict(self._ipc_totals)
