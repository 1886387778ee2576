"""Property and unit tests for the dispatch/placement policy registry.

The policy contract has two halves, and each gets its own invariants:

* **Placement** (``place_lines``, consumed pre-fork by the mp shard
  map): must *partition* — every line exactly one owner, every owner
  in range — for any ``(n_lines, n_workers)``, or a token line would
  be orphaned or double-owned across processes.
* **Dispatch** (``home_for``, consumed per-push by the threaded task
  queues): must return an in-range queue for any observable queue
  state, and must conserve work — whatever a policy does to *where*
  tasks go, every pushed task is popped exactly once and the steal
  counters account for exactly the pops that left their home queue.

Plus the registry plumbing itself: unknown names fail loudly and policy
instances pass through.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.policy import POLICY_NAMES, Policy, make_policy
from repro.parallel.taskqueue import TaskQueueSet

_n_lines = st.integers(min_value=1, max_value=2048)
_n_workers = st.integers(min_value=1, max_value=9)
_policy_names = st.sampled_from(POLICY_NAMES)


class TestPlacementPartitions:
    @given(policy=_policy_names, n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=200, deadline=None)
    def test_every_line_exactly_one_owner_in_range(
        self, policy, n_lines, n_workers
    ):
        owners = make_policy(policy).place_lines(n_lines, n_workers)
        assert len(owners) == n_lines
        assert all(0 <= o < n_workers for o in owners)

    @given(policy=_policy_names, n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=100, deadline=None)
    def test_placement_is_pure(self, policy, n_lines, n_workers):
        """Placement is baked into every worker process pre-fork; if it
        were stateful the processes could disagree on ownership."""
        a = make_policy(policy).place_lines(n_lines, n_workers)
        b = make_policy(policy).place_lines(n_lines, n_workers)
        assert a == b

    @given(n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=100, deadline=None)
    def test_placements_stay_balanced(self, n_lines, n_workers):
        """Both placement shapes (interleaved and blocked) keep worker
        loads within one line of each other — repartitioning to any
        worker count never concentrates lines."""
        for policy in POLICY_NAMES:
            owners = make_policy(policy).place_lines(n_lines, n_workers)
            counts = [owners.count(w) for w in range(n_workers)]
            assert max(counts) - min(counts) <= 1, policy


class TestDispatchConservesWork:
    @given(
        policy=_policy_names,
        n_queues=st.integers(min_value=1, max_value=5),
        n_workers=st.integers(min_value=1, max_value=4),
        tasks=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
                st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_task_dropped_or_duplicated(
        self, policy, n_queues, n_workers, tasks
    ):
        """Drive a real TaskQueueSet through an arbitrary (line, pusher)
        push sequence and a stealing drain: every task must come back
        exactly once, and the counters must balance."""
        pol = make_policy(policy)
        queues = TaskQueueSet(n_queues=n_queues)
        for seq, (line, pusher) in enumerate(tasks):
            pusher_id = None if pusher is None else pusher % n_workers
            home = pol.home_for(line, pusher_id, seq, queues.views)
            assert 0 <= home < n_queues
            queues.push(("task", seq), home=home)
        popped = []
        for i in range(len(tasks)):
            task = queues.pop(home=i % n_queues)
            assert task is not None, "a pushed task was dropped"
            popped.append(task[1])
        assert sorted(popped) == list(range(len(tasks)))
        assert queues.pushed == queues.popped == len(tasks)
        assert 0 <= queues.stolen <= queues.popped
        assert len(queues) == 0

    @given(
        n_queues=st.integers(min_value=1, max_value=5),
        n_tasks=st.integers(min_value=0, max_value=40),
        home=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_steal_counter_counts_exactly_the_strays(
        self, n_queues, n_tasks, home
    ):
        """Push everything to one queue, drain from one (possibly
        different) home: the stolen counter must equal the pops that
        came from a non-home queue — no more, no less."""
        queues = TaskQueueSet(n_queues=n_queues)
        victim = home % n_queues
        for i in range(n_tasks):
            queues.push(("task", i), home=victim)
        drain_home = (victim + 1) % n_queues
        for _ in range(n_tasks):
            assert queues.pop(home=drain_home)
        expected = 0 if drain_home == victim else n_tasks
        assert queues.stolen == expected
        assert queues.pushed == queues.popped == n_tasks


class TestHomeForContract:
    @given(
        policy=_policy_names,
        line=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
        pusher=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        seq=st.integers(min_value=0, max_value=100_000),
        depths=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_home_always_in_range(self, policy, line, pusher, seq, depths):
        views = [[("task", i)] * d for i, d in enumerate(depths)]
        home = make_policy(policy).home_for(line, pusher, seq, views)
        assert 0 <= home < len(depths)

    def test_least_loaded_picks_a_shallowest_queue(self):
        pol = make_policy("least-loaded")
        views = [["t"] * 5, ["t"] * 2, ["t"] * 2, ["t"] * 9]
        assert pol.home_for(None, None, 0, views) in (1, 2)

    def test_affinity_keeps_a_line_on_one_queue(self):
        pol = make_policy("affinity")
        views = [[], [], []]
        homes = {pol.home_for(17, p, s, views) for p in (0, 1, None)
                 for s in range(10)}
        assert len(homes) == 1

    def test_rebalance_spills_only_hot_queues(self):
        """The spill needs both conditions: absolute depth above
        ``hot_depth`` AND at least twice the shallowest peer."""
        pol = make_policy("rebalance")
        line = 0
        cold = [["t"] * 3, [], []]
        home_cold = pol.home_for(line, 0, 0, cold)
        assert pol.rebalances == 0
        hot = [["t"] * 20, [], []]
        hot[home_cold] = ["t"] * 20
        spilled = pol.home_for(line, 0, 1, hot)
        assert spilled != home_cold
        assert pol.rebalances == 1
        # The spill target is a shallowest queue, keeping twins close
        # to each other rather than scattering them.
        assert len(hot[spilled]) == 0

    def test_rebalance_spills_inside_a_real_engine_run(self):
        """The engine hands the policy live queue depths: the pinned
        conjugate-storm schedule runs its queues hot enough to spill."""
        from tests.schedck.test_conjugate_storm import run_pinned

        report = run_pinned("rebalance")
        assert report.ok, report.format()
        assert dict(report.telemetry)["policy.rebalances"] > 0


class TestRegistry:
    def test_unknown_policy_fails_loudly(self):
        with pytest.raises(ValueError, match="round-robin"):
            make_policy("fifo")

    def test_instance_passes_through(self):
        pol = make_policy("affinity")
        assert make_policy(pol) is pol

    def test_fresh_instances_have_zero_counters(self):
        for name in POLICY_NAMES:
            pol = make_policy(name)
            assert isinstance(pol, Policy)
            assert pol.rebalances == 0
            assert pol.name == name
