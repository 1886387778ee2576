"""Unit tests for the corgi engine: plan compilation, unlinking,
strictness, introspection, and the obs integration — the mechanisms
the cross-engine conformance suite exercises but cannot see.
"""

from __future__ import annotations

import pytest

from repro.corgi.engine import CorgiMatcher
from repro.corgi.plan import compile_plans, memory_layout
from repro.engines import make_matcher
from repro.obs import events as obs_events
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.network import ReteNetwork

NEEDLE = """
(p needle
  (stage ^step cross)
  (item ^id <x>)
  (item ^id { <y> > <x> })
  (probe ^a <x> ^b <y>)
  -->
  (halt))
"""

BLOCKED_CHAIN = """
(p chain
  (c0 ^a <x>)
  (c1 ^a <x>)
  - (blocker)
  (c2 ^a <x>)
  -->
  (halt))
"""


def compiled(source: str) -> CorgiMatcher:
    return CorgiMatcher(ReteNetwork.compile(parse_program(source)))


def drive(matcher, wm, klass, attrs):
    wme = wm.add(klass, attrs)
    deltas = matcher.process_changes([WMEChange(1, wme)])
    return wme, deltas


class TestPlanCompilation:
    def test_slots_follow_ce_order(self):
        network = ReteNetwork.compile(parse_program(NEEDLE))
        (plan,) = compile_plans(network)
        assert [s.positive for s in plan.slots] == [True] * 4
        assert [s.pos_index for s in plan.slots] == [0, 1, 2, 3]
        assert plan.n_pos == 4
        # Every slot reads exactly one alpha terminal's memory; the two
        # item CEs share one (same constant tests, no equality key).
        layout = memory_layout(network)
        assert [[s.index for s in mem.readers] for mem in layout] == [[0], [1, 2], [3]]
        assert all(mem.alpha is s.alpha for mem in layout for s in mem.readers)

    def test_constant_blocker_gates_at_depth_zero(self):
        network = ReteNetwork.compile(parse_program(BLOCKED_CHAIN))
        plans = compile_plans(network)
        (plan,) = plans
        gate = next(s for s in plan.slots if not s.positive)
        assert gate.needed == 0
        assert plan.gates_at[0] == [gate]

    def test_variable_gate_hoisted_to_binding_depth(self):
        source = """
        (p g (c0 ^a <x>) (c1 ^a <x>) - (blocker ^a <x>) (c2 ^a <x>) --> (halt))
        """
        plans = compile_plans(ReteNetwork.compile(parse_program(source)))
        (plan,) = plans
        gate = next(s for s in plan.slots if not s.positive)
        # <x> binds at position 0, so the gate needs one bound positive
        # — it is checked at depth 1, not after the whole chain.
        assert gate.needed == 1
        assert plan.gates_at[1] == [gate]


class TestUnlinking:
    def test_rule_unlinked_until_every_positive_slot_fills(self):
        matcher = compiled(NEEDLE)
        wm = WorkingMemory()
        assert not matcher.linked("needle")
        drive(matcher, wm, "stage", {"step": "cross"})
        for i in range(4):
            _, deltas = drive(matcher, wm, "item", {"id": i})
            assert deltas == []
        assert not matcher.linked("needle")
        # All the item adds were absorbed in O(1): no join work at all.
        assert matcher.stats.tokens_emitted == 0
        assert matcher.counters["lazy_skips"] >= 4
        assert matcher.counters["relinks"] == 0

    def test_relink_derives_only_demanded_instantiations(self):
        matcher = compiled(NEEDLE)
        wm = WorkingMemory()
        drive(matcher, wm, "stage", {"step": "cross"})
        for i in range(4):
            drive(matcher, wm, "item", {"id": i})
        _, deltas = drive(matcher, wm, "probe", {"a": 1, "b": 3})
        assert matcher.linked("needle")
        assert matcher.counters["relinks"] == 1
        assert [sign for _p, _t, sign in deltas] == [1]
        assert deltas[0][1][0][1].vals["id"] == 1
        assert deltas[0][1][0][2].vals["id"] == 3

    def test_delete_unlinks_and_kills_instantiations(self):
        matcher = compiled(NEEDLE)
        wm = WorkingMemory()
        drive(matcher, wm, "stage", {"step": "cross"})
        for i in range(4):
            drive(matcher, wm, "item", {"id": i})
        probe, _ = drive(matcher, wm, "probe", {"a": 1, "b": 3})
        wm.remove(probe)
        deltas = matcher.process_changes([WMEChange(-1, probe)])
        assert [sign for _p, _t, sign in deltas] == [-1]
        assert not matcher.linked("needle")
        assert matcher.counters["unlinks"] == 1


class TestStrictness:
    def test_delete_of_unknown_wme_raises(self):
        matcher = compiled(NEEDLE)
        wm = WorkingMemory()
        wme = wm.add("item", {"id": 1})
        with pytest.raises(RuntimeError, match="unknown wme"):
            matcher.process_changes([WMEChange(-1, wme)])

    def test_close_is_idempotent(self):
        matcher = compiled(NEEDLE)
        matcher.close()
        matcher.close()


class TestIntrospection:
    def test_slot_sizes_and_resident_tokens(self):
        matcher = compiled(NEEDLE)
        wm = WorkingMemory()
        drive(matcher, wm, "stage", {"step": "cross"})
        for i in range(3):
            drive(matcher, wm, "item", {"id": i})
        # stage fills slot 0; each item lands in both item slots.
        assert matcher.slot_sizes("needle") == [1, 3, 3, 0]
        assert matcher.resident_tokens() == 7

    def test_factory_and_interpreter_integration(self):
        network = ReteNetwork.compile(parse_program(NEEDLE))
        matcher = make_matcher("corgi", network, n_workers=3)
        assert isinstance(matcher, CorgiMatcher)
        interp = Interpreter(
            "(p go (a ^x <v>) --> (write saw <v>) (halt))"
            "(startup (make a ^x 9))",
            engine="corgi",
        )
        try:
            result = interp.run(max_cycles=10)
            assert result.halted
            assert result.output == ["saw 9"]
        finally:
            interp.close()


class TestObsIntegration:
    def test_spans_counters_and_node_hits(self):
        obs_events.reset()
        obs_events.enable()
        try:
            matcher = compiled(NEEDLE)
            wm = WorkingMemory()
            drive(matcher, wm, "stage", {"step": "cross"})
            for i in range(2):
                drive(matcher, wm, "item", {"id": i})
            probe, _ = drive(matcher, wm, "probe", {"a": 0, "b": 1})
            wm.remove(probe)
            matcher.process_changes([WMEChange(-1, probe)])
        finally:
            snap = obs_events.snapshot()
            obs_events.disable()
        assert len(snap.spans_by_cat("match")) == 5
        assert snap.counters.get("corgi.lazy_skip", 0) >= 2
        assert snap.counters.get("corgi.relink") == 1
        assert snap.counters.get("corgi.unlink") == 1
        assert snap.nodes, "per-node profile rows missing"
