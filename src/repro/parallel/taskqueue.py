"""Task queues and the TaskCount termination counter (§3.2).

Tasks — tokens tagged with the destination node and input side — wait
on one or more central task queues, each guarded by a
:class:`~repro.parallel.locks.SpinLock`.  With multiple queues the
control process deals its pushes over the queues in turn, a match
process pushes what it spawns onto its *home* queue, and every process
pops from its home queue first, scanning the others when it is empty;
this is the multiple-task-queue configuration that lifted Weaver from
3.9× to 8.2× in Table 4-6.

``TaskCount`` is the global counter holding (tasks queued) + (tasks in
process); match is finished when it reaches zero.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .hooks import yield_point
from .locks import LockStats, SpinLock
from ..obs import events as _obs


class TaskCount:
    """The paper's global activity counter with its own spin lock."""

    def __init__(self) -> None:
        self._lock = SpinLock(label="taskcount")
        self._value = 0
        #: Lowest value ever observed by a decrement — an invariant probe
        #: for the schedule harness (must never go below 0).
        self.min_value = 0

    def increment(self, n: int = 1) -> None:
        yield_point("taskcount_inc", self)
        with self._lock:
            self._value += n

    def decrement(self, n: int = 1) -> int:
        yield_point("taskcount_dec", self)
        with self._lock:
            self._value -= n
            value = self._value
            if value < self.min_value:
                self.min_value = value
        if value < 0:
            raise RuntimeError("TaskCount went negative")
        return value

    @property
    def value(self) -> int:
        return self._value

    @property
    def zero(self) -> bool:
        return self._value == 0

    @property
    def holder(self) -> Optional[str]:
        """Thread currently inside the counter's spin lock (None unless
        :data:`repro.parallel.locks.HOLDER_TRACKING` is on)."""
        return self._lock.holder


class TaskQueueSet:
    """``n_queues`` LIFO task queues with per-queue spin locks.

    LIFO (push/pop at the tail) matches the paper's description and
    keeps hot tokens cache-warm; it also bounds queue growth the same
    way the C implementation's stack-like queues did.
    """

    def __init__(self, n_queues: int = 1) -> None:
        if n_queues < 1:
            raise ValueError("need at least one task queue")
        self.n_queues = n_queues
        self._queues: List[List[Any]] = [[] for _ in range(n_queues)]
        self._locks = [SpinLock(label="queue") for _ in range(n_queues)]
        # Conservation counters, always on (plain int bumps under the
        # GIL; racy lost updates are possible under free threading but
        # they only feed the watchdog and tests that drive the queues
        # single-threaded).
        self.pushed = 0
        self.popped = 0
        #: Pops satisfied from a non-home queue — the steal counter.
        self.stolen = 0
        #: Deepest any single queue has ever been — the imbalance probe.
        self.max_depth = 0

    def push(self, task: Any, home: int = 0) -> None:
        """Push ``task``; ``home`` selects the queue (mod n_queues)."""
        yield_point("queue_push", task)
        qi = home % self.n_queues
        with self._locks[qi]:
            self._queues[qi].append(task)
            depth = len(self._queues[qi])
        self.pushed += 1
        if depth > self.max_depth:
            self.max_depth = depth
        if _obs.ENABLED:
            _obs.count("queue.push")
            if depth * self.n_queues > 2 * len(self):
                # This queue holds more than twice its fair share —
                # the imbalance the peer scan in pop() has to absorb.
                _obs.count("queue.push_imbalanced")

    def pop(self, home: int = 0) -> Optional[Any]:
        """Pop from the home queue, else scan the others (so no task
        can be stranded on a queue no worker calls home); None if all
        are empty."""
        yield_point("queue_pop", home)
        for offset in range(self.n_queues):
            qi = (home + offset) % self.n_queues
            queue = self._queues[qi]
            if not queue:
                # The "test" half: peek without the lock; skip queues
                # that look empty.
                continue
            with self._locks[qi]:
                if queue:
                    self.popped += 1
                    if offset:
                        self.stolen += 1
                    if _obs.ENABLED:
                        _obs.count("queue.pop")
                        if offset:
                            _obs.count("queue.pop_stolen")
                    return queue.pop()
        if _obs.ENABLED:
            _obs.count("queue.pop_empty")
        return None

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def depths(self) -> List[int]:
        """Instantaneous per-queue depths, lock-free (a racy read is
        fine for the watchdog's stall probe)."""
        return [len(q) for q in self._queues]

    def holders(self) -> dict:
        """Currently-held queue locks (empty unless HOLDER_TRACKING)."""
        return {
            f"queue[{i}]": lock.holder
            for i, lock in enumerate(self._locks)
            if lock.holder is not None
        }

    def lock_stats(self) -> LockStats:
        merged = LockStats()
        for lock in self._locks:
            merged.merge(lock.stats)
        return merged
