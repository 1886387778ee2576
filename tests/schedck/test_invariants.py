"""The quiescence-point invariant checks detect what they claim to."""

from collections import Counter

from repro.check import check_conflict_set
from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.rete.stats import MatchStats
from repro.schedck import invariants
from repro.schedck.invariants import (
    AMPLIFICATION_PER_CHANGE,
    check_amplification,
    check_census,
    check_quiescence,
    memory_census,
)
from repro.schedck.runner import run_schedule

PROGRAM = "(p r (c0 ^a <x>) (c1 ^a <x>) --> (halt))"


def matched_memory():
    network = ReteNetwork.compile(parse_program(PROGRAM))
    matcher = SequentialMatcher(network)
    wm = WorkingMemory()
    changes = [WMEChange(1, wm.add("c0", {"a": 1})), WMEChange(1, wm.add("c1", {"a": 1}))]
    matcher.process_changes(changes)
    return matcher, network


def right_item(matcher, node):
    """Some token stored in ``node``'s right memory."""
    return next(
        item
        for (node_id, _key), bucket in matcher.memory.right.items()
        if node_id == node.node_id
        for item in bucket
    )


class TestMemoryCensus:
    def test_equal_memories_pass(self):
        matcher, network = matched_memory()
        census = memory_census(matcher.memory)
        assert census  # both sides of the join hold a token
        assert check_census(0, Counter(census), Counter(census)) == []

    def test_orphaned_token_detected(self):
        matcher, network = matched_memory()
        expected = memory_census(matcher.memory)
        node = network.two_input_nodes()[0]
        extra = right_item(matcher, node)
        matcher.memory.right[(node.node_id, ("orphan",))] = [extra]
        violations = check_census(0, memory_census(matcher.memory), expected)
        assert violations
        assert "extra" in violations[0].detail

    def test_duplicated_token_detected(self):
        matcher, network = matched_memory()
        expected = memory_census(matcher.memory)
        node = network.two_input_nodes()[0]
        item = right_item(matcher, node)
        matcher.memory.right[(node.node_id, node.right_key_fn(item[0][-1]))].append(item)
        violations = check_census(0, memory_census(matcher.memory), expected)
        assert any("duplicated" in v.detail for v in violations)

    def test_lost_token_detected(self):
        matcher, network = matched_memory()
        expected = memory_census(matcher.memory)
        node = network.two_input_nodes()[0]
        item = right_item(matcher, node)
        matcher.memory.right[(node.node_id, node.right_key_fn(item[0][-1]))].remove(item)
        violations = check_census(0, memory_census(matcher.memory), expected)
        assert violations
        assert "missing" in violations[0].detail


class TestConflictSet:
    def test_equal_sets_pass(self):
        cs = Counter({("r", (1, 2)): 1})
        assert check_conflict_set(0, cs, Counter(cs)) == []

    def test_zero_counts_are_ignored(self):
        par = Counter({("r", (1, 2)): 1, ("r", (3, 4)): 0})
        seq = Counter({("r", (1, 2)): 1})
        assert check_conflict_set(0, par, seq) == []

    def test_extra_instantiation_detected(self):
        par = Counter({("r", (1, 2)): 1, ("r", (3, 4)): 1})
        seq = Counter({("r", (1, 2)): 1})
        violations = check_conflict_set(1, par, seq)
        assert violations and violations[0].batch == 1
        assert "extra" in violations[0].detail

    def test_multiplicity_mismatch_detected(self):
        par = Counter({("r", (1, 2)): 2})
        seq = Counter({("r", (1, 2)): 1})
        violations = check_conflict_set(0, par, seq)
        assert violations
        assert "multiplicities" in violations[0].detail


class TestQuiescence:
    class _FakeTaskCount:
        def __init__(self, value=0, min_value=0):
            self.value = value
            self.min_value = min_value

    class _FakeMemory:
        def __init__(self, pending=0):
            self.pending_deletes = pending

    class _FakeMatcher:
        def __init__(self, value=0, min_value=0, pending=0):
            self.taskcount = TestQuiescence._FakeTaskCount(value, min_value)
            self.memory = TestQuiescence._FakeMemory(pending)

    def test_clean_matcher_passes(self):
        assert check_quiescence(0, self._FakeMatcher()) == []

    def test_nonzero_taskcount_detected(self):
        violations = check_quiescence(0, self._FakeMatcher(value=3))
        assert any(v.kind == "taskcount" for v in violations)

    def test_negative_excursion_detected(self):
        violations = check_quiescence(0, self._FakeMatcher(min_value=-1))
        assert any("negative" in v.detail for v in violations)

    def test_parked_deletes_detected(self):
        violations = check_quiescence(2, self._FakeMatcher(pending=2))
        assert any(v.kind == "extra_deletes" for v in violations)


class TestAmplification:
    @staticmethod
    def stats(tokens, changes=0):
        stats = MatchStats()
        stats.tokens_emitted = tokens
        stats.wme_changes = changes
        return stats

    def test_additive_excess_passes(self):
        seq = self.stats(100, changes=5)
        assert check_amplification(0, self.stats(60), seq) == []
        at_bound = self.stats(100 + AMPLIFICATION_PER_CHANGE * 5)
        assert check_amplification(0, at_bound, seq) == []

    def test_multiplicative_excess_detected(self):
        seq = self.stats(6660, changes=44)
        # The removed conjugate-storm livelock: 2.4x the oracle's tokens.
        (finding,) = check_amplification(1, self.stats(16252), seq)
        assert finding.kind == "amplification" and finding.batch == 1
        assert "16252" in finding.detail and "44 WM changes" in finding.detail

    def test_finding_fails_the_schedule_with_a_replay_line(self, monkeypatch):
        monkeypatch.setattr(invariants, "AMPLIFICATION_PER_CHANGE", -1000)
        report = run_schedule(0, workload="deep-chain")
        assert not report.ok
        text = report.format()
        assert "[amplification] batch 0:" in text
        assert "replay: python -m repro check schedck --seed 0" in text
        assert "--workload deep-chain" in text
