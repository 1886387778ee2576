"""Planted defects: one per hazard the §3.2 synchronization design guards.

Each plant is a ``(target, attribute, replacement)`` triple for
``monkeypatch.setattr``, undone when the test ends.  ``test_plants.py``
holds a pinned random or PCT schedule to catching each one.
"""

from repro.parallel.conjugate import ConjugateMemory
from repro.parallel.engine import ParallelMatcher
from repro.parallel.hooks import yield_point
from repro.parallel.taskqueue import TaskQueueSet


def _one_wave(self, changes):
    """``process_changes`` before retract-before-assert: a batch's adds
    race its deletes, and LIFO queues run the later adds first."""
    for change in changes:
        self.taskcount.increment()
        self._roots += 1
        self.queues.push(("change", change.sign, change.wme, None), home=self._roots)
    while not self.taskcount.zero and not self._failures:
        yield_point("quiesce_wait", self.taskcount)
    if self._failures:
        raise RuntimeError("match process failed") from self._failures[0]
    deltas = [delta for ctx in self._ctxs for delta in ctx.cs_deltas]
    for ctx in self._ctxs:
        ctx.cs_deltas = []
    return deltas


_push_children = ParallelMatcher._push_children


def _decrement_first(self, wid, children, meta):
    """The running task leaves TaskCount before its children enter it,
    so the control process can see zero with work still to push."""
    self.taskcount.decrement()
    _push_children(self, wid, children, meta)
    self.taskcount.increment()


def _never_annihilate(self, node_id, side, key, token_key):
    """A ``+`` passes its parked ``-`` twin by."""
    yield_point("mem_insert", (node_id, side, key))
    return False


def _pop_home_only(self, home=0):
    """No peer scan: a task on a queue no worker calls home stays there."""
    yield_point("queue_pop", home)
    queue = self._queues[home % self.n_queues]
    with self._locks[home % self.n_queues]:
        return queue.pop() if queue else None


ASSERT_BEFORE_RETRACT = (ParallelMatcher, "process_changes", _one_wave)
TASKCOUNT_EARLY = (ParallelMatcher, "_push_children", _decrement_first)
NO_ANNIHILATION = (ConjugateMemory, "before_insert", _never_annihilate)
NO_PEER_SCAN = (TaskQueueSet, "pop", _pop_home_only)
