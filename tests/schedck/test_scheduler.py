"""The cooperative scheduler: serialization, determinism, liveness."""

import threading

import pytest

from repro.parallel import hooks
from repro.schedck.policies import SeededRandomPolicy
from repro.schedck.scheduler import (
    CooperativeScheduler, HarnessSession, ScheduleExhausted,
)


@pytest.fixture(autouse=True)
def _clean_hooks():
    yield
    hooks.uninstall()


def run_cooperative(n_threads, body, policy=None, **kw):
    """Run ``body(i)`` in ``n_threads`` threads under a fresh scheduler,
    with the calling thread playing the control role (it polls for
    completion at a quiescence-style yield point, exactly like the
    engine's TaskCount wait); returns the scheduler afterwards."""
    scheduler = CooperativeScheduler(
        policy or SeededRandomPolicy(0),
        expected_threads=n_threads + 1,
        **kw,
    )
    finished = []

    def wrapped(i):
        try:
            body(i)
        except ScheduleExhausted:
            pass  # the run was ended; the scheduler says why
        finally:
            finished.append(i)
            hooks.thread_exit()

    threads = [
        threading.Thread(target=wrapped, args=(i,), name=f"coop-{i}", daemon=True)
        for i in range(n_threads)
    ]
    with HarnessSession(scheduler):
        for t in threads:
            t.start()
        try:
            while len(finished) < n_threads:
                hooks.yield_point("quiesce_wait", None)
        except ScheduleExhausted:
            pass
        scheduler.deactivate()
    for t in threads:
        t.join(10)
    return scheduler


class TestSerialization:
    def test_one_thread_runs_at_a_time(self):
        active = []
        overlaps = []

        def body(i):
            for _ in range(20):
                hooks.yield_point("mem_insert", i)
                active.append(i)
                if len(active) > 1:
                    overlaps.append(tuple(active))
                active.remove(i)

        run_cooperative(3, body)
        assert overlaps == []

    def test_all_threads_complete(self):
        counts = {}

        def body(i):
            for n in range(10):
                hooks.yield_point("queue_push", None)
                counts[i] = n + 1

        run_cooperative(4, body)
        assert counts == {0: 10, 1: 10, 2: 10, 3: 10}


class TestDeterminism:
    def _trace(self, seed):
        order = []

        def body(i):
            for _ in range(15):
                hooks.yield_point("mem_insert", i)
                order.append(i)

        sched = run_cooperative(3, body, policy=SeededRandomPolicy(seed))
        return order, [name for _, name, _ in sched.trace]

    def test_same_seed_same_schedule(self):
        assert self._trace(5) == self._trace(5)

    def test_different_seed_different_schedule(self):
        assert self._trace(1)[0] != self._trace(2)[0]


class TestLiveness:
    def test_waiting_loops_do_not_wedge(self):
        # One thread spins on a flag only another thread sets: with
        # every loop iteration yielding, the scheduler must interleave
        # them to completion.
        flag = []

        def body(i):
            if i == 0:
                while not flag:
                    hooks.yield_point("lock_spin", None)
            else:
                for _ in range(5):
                    hooks.yield_point("mem_insert", None)
                flag.append(1)

        sched = run_cooperative(2, body)
        assert flag

    def test_max_steps_truncates(self):
        def body(i):
            for _ in range(100):
                hooks.yield_point("mem_insert", None)

        sched = run_cooperative(2, body, max_steps=20)
        assert sched.truncated
        assert sched.steps == 20

    def test_the_budget_ends_threads_that_wait_forever(self):
        # Every thread waits on progress nobody will make (a task
        # stranded on a queue no worker pops): the budget must end the
        # run, each thread raising at its next yield point.
        ended = []

        def body(i):
            try:
                while True:
                    hooks.yield_point("worker_idle", None)
            except ScheduleExhausted as exc:
                ended.append(str(exc))
                raise

        sched = run_cooperative(2, body, max_steps=50)
        assert sched.truncated and sched.steps == 50
        assert ended == ["decision budget of 50 spent"] * 2

    def test_the_deadline_ends_every_parked_thread(self):
        # A mis-declared thread count keeps the start gate shut, so no
        # decision is ever made: the wall-clock deadline must end both
        # parked threads, not just the one that notices it.
        sched = CooperativeScheduler(
            SeededRandomPolicy(0), expected_threads=3, liveness_timeout=0.3
        )
        ended = []

        def body():
            try:
                hooks.yield_point("queue_pop", None)
            except ScheduleExhausted as exc:
                ended.append(str(exc))

        with HarnessSession(sched):
            t = threading.Thread(target=body, name="gate-0", daemon=True)
            t.start()
            with pytest.raises(ScheduleExhausted, match="no progress within 0.3s"):
                hooks.yield_point("quiesce_wait", None)
        t.join(10)
        assert not t.is_alive()
        assert len(ended) == 1 and ended[0].startswith("no progress within 0.3s")
        assert sched.steps == 0 and not sched.truncated

    def test_thread_exit_hands_turn_over(self):
        # A thread that dies right after being scheduled must not strand
        # the others (regression for the poison-pill path).
        def body(i):
            hooks.yield_point("queue_pop", None)
            if i == 0:
                return  # dies immediately; wrapped() calls thread_exit
            for _ in range(5):
                hooks.yield_point("mem_insert", None)

        run_cooperative(3, body)


class TestStartGate:
    def test_no_decisions_before_all_threads_park(self):
        sched = CooperativeScheduler(SeededRandomPolicy(0), expected_threads=3)
        started = []

        def body():
            hooks.yield_point("queue_pop", None)
            started.append(threading.current_thread().name)
            hooks.thread_exit()

        with HarnessSession(sched):
            t1 = threading.Thread(target=body, name="gate-0", daemon=True)
            t1.start()
            t1.join(0.3)
            # Only one of three expected threads has parked: it must
            # still be waiting, with no scheduling decisions made.
            assert t1.is_alive()
            assert sched.steps == 0
            t2 = threading.Thread(target=body, name="gate-1", daemon=True)
            t2.start()
            hooks.yield_point("queue_push", None)  # third participant
            sched.deactivate()
            t1.join(10)
            t2.join(10)
        assert sorted(started) == ["gate-0", "gate-1"]
