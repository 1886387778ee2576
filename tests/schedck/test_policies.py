"""Schedule policies: determinism, guards, the spec grammar."""

import pytest

from repro.schedck.policies import PCTPolicy, SeededRandomPolicy, make_policy

WORKERS = [("match-0", "queue_pop"), ("match-1", "mem_insert"), ("MainThread", "quiesce_wait")]


def drive(policy, runnable, n=50):
    return [policy.choose(list(runnable), step) for step in range(n)]


class TestSeededRandom:
    def test_deterministic_per_seed(self):
        assert drive(SeededRandomPolicy(3), WORKERS) == drive(SeededRandomPolicy(3), WORKERS)

    def test_seed_changes_schedule(self):
        assert drive(SeededRandomPolicy(1), WORKERS) != drive(SeededRandomPolicy(2), WORKERS)

    def test_single_runnable_is_forced(self):
        policy = SeededRandomPolicy(0)
        assert policy.choose([("match-0", "queue_pop")], 0) == "match-0"


class TestPCT:
    def test_deterministic_per_seed(self):
        assert drive(PCTPolicy(9), WORKERS) == drive(PCTPolicy(9), WORKERS)

    def test_priority_based_until_change_point(self):
        # Outside change points and with the guard quiet, the same
        # leader wins every time.
        policy = PCTPolicy(0, depth=1)  # depth 1 => no change points
        busy = [("match-0", "mem_insert"), ("match-1", "mem_remove")]
        choices = set(drive(policy, busy, 20))
        assert len(choices) == 1

    def test_guard_rotates_waiting_leader(self):
        # All runnable threads waiting: PCT would fixate on its leader
        # forever; the guard must rotate so every thread progresses.
        waiting = [("match-0", "queue_pop"), ("match-1", "worker_idle"),
                   ("MainThread", "quiesce_wait")]
        policy = PCTPolicy(4, depth=1)
        assert set(drive(policy, waiting, 60)) == {"match-0", "match-1", "MainThread"}


class TestFactory:
    @pytest.mark.parametrize(
        "spec, expected_name",
        [
            ("random", "random"),
            ("pct", "pct:3"),
            ("pct:5", "pct:5"),
            ("pct:1", "pct:1"),
        ],
    )
    def test_specs(self, spec, expected_name):
        assert make_policy(spec, 0).name == expected_name

    def test_unknown_spec(self):
        """Refused by name: malformed or non-positive PCT depths and
        the targeted policies schedck no longer has."""
        for spec in [
            "roundrobin", "pct:x", "pct:", "pct:-2", "pct:0", "random:1",
            "adversarial:delay-plus", "adversarial:delay-deletes",
            "adversarial:starve-quiescence", "adversarial:starve-worker",
            "burst", "burst:50",
        ]:
            with pytest.raises(ValueError) as exc:
                make_policy(spec, 0)
            assert str(exc.value) == f"unknown schedule policy {spec!r}"
