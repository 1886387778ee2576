"""Unit tests for tokens, match statistics, and trace recording."""

import pytest

from repro.ops5.wme import WME
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, EMPTY, Token
from repro.rete.trace import MatchTrace, TaskRecord, TraceRecorder


def w(tag: int) -> WME:
    return WME.make("c", {"i": tag}, tag)


class TestToken:
    def test_of_builds_key_from_timetags(self):
        t = Token.of((w(3), w(7)))
        assert t.key == (3, 7)
        assert len(t) == 2

    def test_single(self):
        t = Token.single(w(9))
        assert t.key == (9,)

    def test_extend(self):
        t = Token.single(w(1)).extend(w(2))
        assert t.key == (1, 2)
        assert t.wmes[1].timetag == 2

    def test_empty(self):
        assert EMPTY.key == ()
        assert len(EMPTY) == 0

    def test_equality_by_content(self):
        assert Token.of((w(1),)) == Token.of((w(1),))

    def test_signs(self):
        assert ADD == 1 and DELETE == -1

    def test_str(self):
        assert str(Token.of((w(1), w(2)))) == "[1 2]"


class TestMatchStats:
    def test_record_activation_by_kind(self):
        s = MatchStats()
        s.record_activation("join")
        s.record_activation("join")
        s.record_activation("term")
        assert s.node_activations == 3
        assert s.activations_by_kind == {"join": 2, "term": 1}

    def test_opposite_means(self):
        s = MatchStats()
        s.record_opposite("L", 4)
        s.record_opposite("L", 8)
        s.record_opposite("R", 2)
        assert s.mean_opp_left == 6.0
        assert s.mean_opp_right == 2.0

    def test_zero_examined_ignored(self):
        # The paper counts only activations with non-empty opposite
        # memories; zero-scan probes never reach record_opposite.
        s = MatchStats()
        s.record_opposite("L", 0)
        assert s.opp_count_left == 0
        assert s.mean_opp_left == 0.0

    def test_same_delete_means(self):
        s = MatchStats()
        s.record_same_delete("R", 10)
        assert s.mean_same_del_right == 10.0
        assert s.mean_same_del_left == 0.0

    def test_merge_is_the_fieldwise_sum(self):
        """Every dataclass field takes part, so a counter added later
        cannot be dropped from the parallel engines' roll-up."""
        from dataclasses import fields

        def block(base):
            stats = MatchStats()
            for i, f in enumerate(fields(MatchStats)):
                if f.name != "activations_by_kind":
                    setattr(stats, f.name, base + i)
            return stats

        a, b = block(100), block(1000)
        a.activations_by_kind = {"join": 3, "term": 1}
        b.activations_by_kind = {"join": 4, "not": 2}
        merged = MatchStats().merge(a).merge(b)
        for i, f in enumerate(fields(MatchStats)):
            if f.name != "activations_by_kind":
                assert getattr(merged, f.name) == 1100 + 2 * i, f.name
        assert merged.activations_by_kind == {"join": 7, "term": 1, "not": 2}
        # The operands are left alone.
        assert a.activations_by_kind == {"join": 3, "term": 1}
        assert b.wme_changes == 1000

    def test_summary_keys(self):
        s = MatchStats()
        summary = s.summary()
        assert {"wme_changes", "node_activations", "mean_opp_left"} <= set(summary)


class TestTraceRecorder:
    def test_cycle_and_change_structure(self):
        rec = TraceRecorder()
        rec.begin_cycle("r1", n_rhs_actions=3)
        rec.begin_change(n_const_tests=5, n_alpha_hits=2)
        tid = rec.add_task(-1, "join", 7, "L", 1, line=3,
                           opp_examined=2, same_examined=0, n_children=1)
        rec.add_task(tid, "term", 8, "L", 1, line=-1,
                     opp_examined=0, same_examined=0, n_children=0)
        rec.end_cycle(cs_deltas=1)

        trace = rec.trace
        assert trace.n_tasks == 2
        assert trace.n_changes == 1
        cyc = trace.cycles[0]
        assert cyc.production == "r1"
        assert cyc.cs_deltas == 1
        assert cyc.changes[0].first_level == [0]

    def test_children_index(self):
        rec = TraceRecorder()
        rec.begin_cycle("r", 1)
        rec.begin_change(1, 1)
        a = rec.add_task(-1, "join", 1, "L", 1, 0, 0, 0, 2)
        b = rec.add_task(a, "join", 2, "L", 1, 0, 0, 0, 0)
        c = rec.add_task(a, "term", 3, "L", 1, -1, 0, 0, 0)
        children = rec.trace.children_index()
        assert children[a] == [b, c]
        assert children[b] == []

    def test_startup_changes_get_synthetic_cycle(self):
        rec = TraceRecorder()
        rec.begin_change(1, 0)
        assert rec.trace.cycles[0].production == "<startup>"

    def test_summary(self):
        rec = TraceRecorder()
        rec.begin_cycle("r", 1)
        rec.begin_change(1, 1)
        rec.add_task(-1, "join", 1, "L", 1, 0, 0, 0, 0)
        s = rec.trace.summary()
        assert s["tasks"] == 1
        assert s["by_kind"] == {"join": 1}
