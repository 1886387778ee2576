"""Unit tests for task queues and TaskCount."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.taskqueue import TaskCount, TaskQueueSet


class TestTaskCount:
    def test_increment_decrement(self):
        tc = TaskCount()
        tc.increment()
        tc.increment(2)
        assert tc.value == 3
        assert tc.decrement() == 2
        assert not tc.zero
        tc.decrement(2)
        assert tc.zero

    def test_negative_raises(self):
        tc = TaskCount()
        with pytest.raises(RuntimeError):
            tc.decrement()

    def test_thread_safety(self):
        tc = TaskCount()

        def work():
            for _ in range(5000):
                tc.increment()
                tc.decrement()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tc.zero


class TestTaskQueueSet:
    def test_lifo_order(self):
        q = TaskQueueSet(1)
        q.push("a")
        q.push("b")
        assert q.pop() == "b"
        assert q.pop() == "a"
        assert q.pop() is None

    def test_home_queue_routing(self):
        q = TaskQueueSet(4)
        q.push("x", home=2)
        assert len(q) == 1
        # Popping with a different home scans and finds it.
        assert q.pop(home=0) == "x"

    def test_home_preferred(self):
        q = TaskQueueSet(2)
        q.push("mine", home=1)
        q.push("other", home=0)
        assert q.pop(home=1) == "mine"

    def test_home_wraps(self):
        q = TaskQueueSet(3)
        q.push("a", home=7)   # 7 % 3 == 1
        assert q.pop(home=1) == "a"

    def test_empty_returns_none(self):
        assert TaskQueueSet(3).pop() is None

    def test_needs_at_least_one_queue(self):
        with pytest.raises(ValueError):
            TaskQueueSet(0)

    def test_concurrent_push_pop_conserves_items(self):
        # Consumers terminate on a shared "all items drained" event, not
        # a fixed per-consumer quota: a quota leaves the slower consumer
        # spinning unboundedly while the faster one overshoots, which
        # made this test timing-sensitive under load.  Joins are bounded
        # so a conservation bug fails loudly instead of hanging CI.
        q = TaskQueueSet(2)
        total = 1000
        popped = []
        lock = threading.Lock()
        drained = threading.Event()

        def producer(base):
            for i in range(500):
                q.push(base + i, home=i)

        def consumer():
            while not drained.is_set():
                item = q.pop(home=len(popped))
                if item is None:
                    continue
                with lock:
                    popped.append(item)
                    if len(popped) == total:
                        drained.set()

        threads = [
            threading.Thread(target=producer, args=(0,)),
            threading.Thread(target=producer, args=(1000,)),
            threading.Thread(target=consumer),
            threading.Thread(target=consumer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads), "drain did not finish"
        assert sorted(popped) == sorted(list(range(500)) + list(range(1000, 1500)))

    def test_lock_stats_counted(self):
        q = TaskQueueSet(2)
        q.push("a")
        q.pop()
        assert q.lock_stats().acquisitions >= 2


class TestDispatchConservesWork:
    """The engine's one dispatch rule -- the control process deals roots
    over the queues in turn, a worker pushes onto its home queue, an
    idle worker pops home-first and then steals -- moves tasks between
    queues but never loses or duplicates one."""

    @given(
        n_queues=st.integers(min_value=1, max_value=5),
        n_workers=st.integers(min_value=1, max_value=4),
        pushers=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_task_dropped_or_duplicated(self, n_queues, n_workers, pushers):
        """Drive a real TaskQueueSet through an arbitrary push sequence
        (``None``: a control-process root) and a stealing drain: every
        task must come back exactly once, and the counters must balance."""
        queues = TaskQueueSet(n_queues=n_queues)
        roots = 0
        for seq, pusher in enumerate(pushers):
            if pusher is None:
                roots += 1
                home = roots
            else:
                home = pusher % n_workers
            queues.push(("task", seq), home=home)
        popped = []
        for i in range(len(pushers)):
            task = queues.pop(home=i % n_workers)
            assert task is not None, "a pushed task was dropped"
            popped.append(task[1])
        assert sorted(popped) == list(range(len(pushers)))
        assert queues.pushed == queues.popped == len(pushers)
        assert 0 <= queues.stolen <= queues.popped
        assert len(queues) == 0

    @given(
        n_queues=st.integers(min_value=1, max_value=5),
        n_tasks=st.integers(min_value=0, max_value=40),
        pusher=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_steal_counter_counts_exactly_the_strays(self, n_queues, n_tasks, pusher):
        """One worker pushes everything onto its home queue, the next
        one drains: the stolen counter must equal the pops that came
        from a non-home queue -- no more, no less."""
        queues = TaskQueueSet(n_queues=n_queues)
        for i in range(n_tasks):
            queues.push(("task", i), home=pusher)
        thief = pusher + 1
        for _ in range(n_tasks):
            assert queues.pop(home=thief)
        expected = 0 if thief % n_queues == pusher % n_queues else n_tasks
        assert queues.stolen == expected
        assert queues.pushed == queues.popped == n_tasks
