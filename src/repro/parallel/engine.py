"""The threaded parallel match engine — PSM-E's structure in Python.

One *control process* (the caller's thread, i.e. the interpreter) and
``n_workers`` match threads share:

* the compiled Rete network (read-only at match time),
* the global token hash tables wrapped in
  :class:`~repro.parallel.conjugate.ConjugateMemory` (extra-deletes
  lists for out-of-order conjugate pairs),
* one or more task queues with spin locks,
* the ``TaskCount`` termination counter,
* per-line hash-table locks (simple or MRSW).

The control thread pushes one root task per WM change and then waits
for ``TaskCount`` to reach zero, as in §3.2 — once per sign, a batch's
retractions before its assertions; match threads loop pop → process →
push, with every memory-touching activation bracketed by its line's
lock.

**Honesty note on speed**: under CPython's GIL this engine demonstrates
the *correctness* of the synchronization design (identical conflict
sets to the sequential matcher under real interleavings) and yields
real contention measurements, but no wall-clock speed-up.  For measured
multi-core speedup use the multiprocess backend
(:mod:`repro.parallel.mp`, ``engine='mp'``), which replaces the line
locks with shard ownership; for modelled Encore-Multimax speedups use
the trace-driven simulator (:mod:`repro.simulator`).
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from ..obs import context as _context
from ..obs import events as _obs
from ..obs import flight as _flight
from ..obs.watchdog import ProbeSample, StallWatchdog
from ..ops5.wme import WMEChange
from ..rete import kernel
from ..rete.matcher import Matcher
from ..rete.network import ReteNetwork
from ..rete.nodes import CSDelta, MatchContext, Task
from ..rete.stats import MatchStats
from .conjugate import ConjugateMemory
from .hooks import thread_exit, yield_point
from .locks import LockStats, make_line_locks, set_holder_tracking
from .policy import make_policy
from .taskqueue import TaskCount, TaskQueueSet

_POISON = ("poison",)


class ParallelMatcher(Matcher):
    """Drop-in matcher for :class:`~repro.ops5.interpreter.Interpreter`.

    Parameters mirror the paper's experimental axes: ``n_workers`` (the
    "k" of "1+k"), ``n_queues`` (1–8), ``lock_scheme`` ('simple' or
    'mrsw'), ``n_lines`` (hash-table size), plus ``policy`` — the task
    dispatch policy from :mod:`repro.parallel.policy` deciding which
    queue each push lands on.
    """

    #: Conflict-set deltas arrive unordered; the interpreter must use a
    #: count-based conflict set and validate after each batch.
    strict_cs = False

    def __init__(
        self,
        network: ReteNetwork,
        n_workers: int = 2,
        n_queues: int = 1,
        lock_scheme: str = "simple",
        n_lines: int = 256,
        policy: str = "round-robin",
        watchdog_s: Optional[float] = None,
        watchdog_dump: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one match process")
        self.network = network
        _flight.note_engine("threaded", n_workers)
        self.memory = ConjugateMemory(n_lines)
        self.line_locks = make_line_locks(lock_scheme, n_lines)
        self.queues = TaskQueueSet(n_queues)
        self.policy = make_policy(policy)
        self._last_rebalances = 0
        self.taskcount = TaskCount()
        self.n_workers = n_workers
        self._ctxs = [
            MatchContext(self.memory, MatchStats(), strict=False) for _ in range(n_workers)
        ]
        for ctx in self._ctxs:
            ctx.locks = self.line_locks
        self._shutdown = False
        self._failures: List[BaseException] = []
        self._push_seq = 0
        #: Push-to-pop nanoseconds per worker (each slot has one
        #: writer), accumulated only while ``timed``.
        self._queue_wait_ns = [0] * n_workers
        #: Cumulative tasks fully processed across all workers — the
        #: watchdog's progress signal.  A plain int bumped under the
        #: GIL: lost updates are possible and harmless (it only needs
        #: to *advance* while real work happens).
        self.tasks_done = 0
        self._threads = [
            threading.Thread(target=self._worker, args=(i,), daemon=True, name=f"match-{i}")
            for i in range(n_workers)
        ]
        for t in self._threads:
            t.start()
        self._holder_tracking = False
        if watchdog_s:
            # Holder names in the stall bundle cost one current_thread()
            # per acquire; pay it only when someone is watching.
            set_holder_tracking(True)
            self._holder_tracking = True
            self.watchdog = StallWatchdog(
                self._watchdog_probe,
                engine="threaded",
                stall_after_s=watchdog_s,
                dump_path=watchdog_dump,
            ).start()

    # -- control-process side -------------------------------------------------

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Pipeline the changes to the match processes, retractions
        first; wait for quiescence after each sign."""
        if self._shutdown:
            raise RuntimeError("matcher already closed")
        _flight.record("threaded", "batch", {"changes": len(changes)})
        obs_on = _obs.ENABLED
        timed = self.timed
        if obs_on:
            batch_t0 = _obs.now()
        # Request-scoped task meta: worker threads do not inherit the
        # control thread's contextvar, so capture the active request's
        # ids here and ride them on every task tuple (they tag spans).
        ids = _context.current_ids() if obs_on else None
        # Retract before assert: a mixed batch is pushed sign by sign,
        # every `-` to quiescence and then every `+`, so no join ever
        # holds the old and the new WME of one modify together.  A WME
        # made and removed inside one batch meets its `-` first; the
        # extra-deletes lists park it until the `+` arrives.
        deletes = [change for change in changes if change.sign < 0]
        if deletes and len(deletes) < len(changes):
            waves = (deletes, [change for change in changes if change.sign > 0])
        else:
            waves = (changes,)
        for wave in waves:
            # The second slot is this wave's push timestamp, which the
            # workers turn into queue wait; the meta is None with the
            # bus off and nobody timing, so that path allocates nothing.
            t_push = _obs.now() if timed else 0
            meta = (ids, t_push) if ids is not None or t_push else None
            for change in wave:
                self.taskcount.increment()
                # Root WM changes have no hash line yet (alpha dispatch
                # assigns one to each derived activation); the policy
                # sees line=None, pusher=None (the control process).
                self._dispatch(("change", change.sign, change.wme, meta), None, None)
            # The control process becomes idle and waits for the match
            # processes to finish (TaskCount == 0).
            if obs_on:
                wait_t0 = _obs.now()
            while not self.taskcount.zero and not self._failures:
                yield_point("quiesce_wait", self.taskcount)
                time.sleep(0)
            if obs_on:
                _obs.span(
                    "phase", "match.quiesce_wait", wait_t0, _obs.now(),
                    args=_context.tag({"changes": len(wave)}),
                )
            if self._failures:
                break
        if obs_on:
            _obs.span(
                "phase", "match.parallel_batch", batch_t0, _obs.now(),
                args=_context.tag({"changes": len(changes)}),
            )
        if self._failures:
            failure = self._failures[0]
            _flight.record(
                "threaded", "worker_failure", {"error": repr(failure)}
            )
            _flight.dump_on_error("worker_failure")
            self.close()
            raise RuntimeError("match process failed") from failure
        deltas: List[CSDelta] = []
        for ctx in self._ctxs:
            deltas.extend(ctx.cs_deltas)
            ctx.cs_deltas = []
        if self.memory.pending_deletes:
            raise RuntimeError(
                f"{self.memory.pending_deletes} conjugate deletes left parked"
            )
        if obs_on:
            rebalances = self.policy.rebalances
            if rebalances > self._last_rebalances:
                _obs.count("policy.rebalance", rebalances - self._last_rebalances)
            self._last_rebalances = rebalances
        return deltas

    def close(self) -> None:
        """Kill the match processes (the control process's end-of-run duty)."""
        if self._shutdown:
            return
        self._shutdown = True
        if self.watchdog is not None:
            self.watchdog.stop()
        if self._holder_tracking:
            set_holder_tracking(False)
        for _ in self._threads:
            self.queues.push(_POISON, home=self._next_home())
        for t in self._threads:
            t.join(timeout=10.0)

    def _next_home(self) -> int:
        self._push_seq += 1
        return self._push_seq

    def _dispatch(self, task, line: Optional[int], pusher: Optional[int]) -> None:
        """Push one task to the queue the dispatch policy selects."""
        home = self.policy.home_for(line, pusher, self._next_home(), self.queues.views)
        self.queues.push(task, home=home)

    def _watchdog_probe(self) -> ProbeSample:
        """Cheap point-in-time progress reading for the stall watchdog
        (racy reads throughout — precision is not the point)."""
        queues = [
            (f"queue[{i}]", depth)
            for i, depth in enumerate(self.queues.depths())
        ]
        # TaskCount is queued + in-flight work: it keeps `pending`
        # nonzero during a livelock whose tasks are mid-requeue (the
        # queues themselves can look momentarily empty).
        queues.append(("taskcount", self.taskcount.value))
        holders = dict(self.queues.holders())
        tc_holder = self.taskcount.holder
        if tc_holder is not None:
            holders["taskcount"] = tc_holder
        holders.update(self.line_locks.holders())
        return ProbeSample(
            tasks_done=self.tasks_done,
            queues=queues,
            lock_holders=holders,
            extra={
                "workers_alive": sum(t.is_alive() for t in self._threads),
                "n_workers": self.n_workers,
                "failures": len(self._failures),
                "policy": self.policy.name,
                "steals": self.queues.stolen,
                "rebalances": self.policy.rebalances,
                "max_queue_depth": self.queues.max_depth,
            },
        )

    # -- aggregated measurements ----------------------------------------------

    @property
    def stats(self) -> MatchStats:
        merged = MatchStats()
        for ctx in self._ctxs:
            merged.merge(ctx.stats)
        return merged

    @property
    def queue_wait_ns(self) -> int:
        return sum(self._queue_wait_ns)

    def queue_lock_stats(self) -> LockStats:
        return self.queues.lock_stats()

    def line_lock_stats(self) -> LockStats:
        return self.line_locks.stats()

    # -- match-process side -----------------------------------------------------

    def _worker(self, wid: int) -> None:
        """Pop → run the kernel → push, until poisoned.  All match work
        is the kernel's; this loop is the transport around it."""
        ctx = self._ctxs[wid]
        task = None

        def route(children: List[Task]) -> None:
            # The kernel's seam.  Reads `task` when called: children
            # inherit the meta of the task the loop below is running.
            self._push_children(wid, children, task[-1])

        try:
            while True:
                task = self.queues.pop(home=wid)
                if task is None:
                    if self._shutdown:
                        return
                    yield_point("worker_idle", wid)
                    time.sleep(0)
                    continue
                if task[0] == "poison":
                    return
                meta = task[-1]
                ids = None
                if meta is not None:
                    ids = meta[0]
                    if meta[1]:
                        # Push-to-pop latency; requeued tasks accrue
                        # each trip (see _push_children's re-stamp).
                        self._queue_wait_ns[wid] += _obs.now() - meta[1]
                if task[0] == "change":
                    kernel.change_task(
                        self.network, ctx.stats, task[1], task[2], route, ids
                    )
                elif not kernel.execute(ctx, task[1], route, ids):
                    # MRSW refused the line: put the task back on a
                    # queue and move on.
                    self.taskcount.increment()
                    self._dispatch(
                        task,
                        self._line_of(task[1]) if self.policy.needs_line else None,
                        wid,
                    )
                self.taskcount.decrement()
                self.tasks_done += 1
        except BaseException as exc:  # noqa: BLE001 - reported to control
            self._failures.append(exc)
        finally:
            thread_exit()

    def _line_of(self, task: Task) -> Optional[int]:
        """The hash line ``task`` will touch (None for terminals).  Line-
        affinity routing pays this one extra key hash per push; the
        kernel recomputes it under the line lock anyway."""
        node, side, _sign, token = task
        if not node.uses_line():
            return None
        return self.memory.line_of(node.node_id, node.key_for(side, token))

    def _push_children(self, wid: int, children: List[Task], meta) -> None:
        if meta is not None and meta[1]:
            # Re-stamp the push time so child queue-wait measures this
            # push, not the ancestor's (one tuple per sibling group).
            meta = (meta[0], _obs.now())
        need_line = self.policy.needs_line
        for child in children:
            self.taskcount.increment()
            self._dispatch(
                ("act", child, meta), self._line_of(child) if need_line else None, wid
            )
