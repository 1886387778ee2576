"""Unit tests for the sequential matcher driving the Rete network."""

import pytest

from repro.ops5.parser import parse_program
from repro.ops5.wme import WME, WMEChange, WorkingMemory
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.rete.trace import TraceRecorder


def matcher_for(src: str, **kw) -> SequentialMatcher:
    return SequentialMatcher(ReteNetwork.compile(parse_program(src)), **kw)


def add(wm: WorkingMemory, klass: str, attrs=None) -> WMEChange:
    return WMEChange(sign=1, wme=wm.add(klass, attrs or {}))


def rm(wm: WorkingMemory, wme: WME) -> WMEChange:
    wm.remove(wme)
    return WMEChange(sign=-1, wme=wme)


class TestJoin:
    SRC = "(p r (a ^x <v>) (b ^y <v>) --> (halt))"

    def test_pair_appears_in_both_orders(self):
        for order in ("ab", "ba"):
            m = matcher_for(self.SRC)
            wm = WorkingMemory()
            changes = []
            if order == "ab":
                changes = [add(wm, "a", {"x": 1}), add(wm, "b", {"y": 1})]
            else:
                changes = [add(wm, "b", {"y": 1}), add(wm, "a", {"x": 1})]
            deltas = m.process_changes(changes)
            assert len(deltas) == 1
            assert deltas[0][2] == 1

    def test_mismatched_values_do_not_join(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        deltas = m.process_changes([add(wm, "a", {"x": 1}), add(wm, "b", {"y": 2})])
        assert deltas == []

    def test_delete_retracts(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        ca = add(wm, "a", {"x": 1})
        cb = add(wm, "b", {"y": 1})
        m.process_changes([ca, cb])
        deltas = m.process_changes([rm(wm, ca.wme)])
        assert len(deltas) == 1
        assert deltas[0][2] == -1

    def test_same_wme_both_sides_single_emission(self):
        # A wme whose class feeds both CEs must produce exactly one pair.
        src = "(p r (a ^x <v>) (a ^y <v>) --> (halt))"
        m = matcher_for(src)
        wm = WorkingMemory()
        deltas = m.process_changes([add(wm, "a", {"x": 1, "y": 1})])
        assert len(deltas) == 1

    def test_cross_product_counts(self):
        src = "(p r (a ^x <v>) (b ^y <w>) --> (halt))"
        m = matcher_for(src)
        wm = WorkingMemory()
        changes = [add(wm, "a", {"x": i}) for i in range(3)]
        changes += [add(wm, "b", {"y": i}) for i in range(4)]
        deltas = m.process_changes(changes)
        assert len(deltas) == 12  # 3 x 4 cross product

    def test_strict_mode_rejects_unmatched_delete(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        w = wm.add("a", {"x": 1})
        with pytest.raises(RuntimeError):
            m.process_changes([WMEChange(sign=-1, wme=w)])


class TestNegation:
    SRC = "(p r (a ^x <v>) - (b ^y <v>) --> (halt))"

    def test_absent_negated_fires(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        deltas = m.process_changes([add(wm, "a", {"x": 1})])
        assert [sign for _p, _t, sign in deltas] == [1]

    def test_present_negated_blocks(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        deltas = m.process_changes([add(wm, "b", {"y": 1}), add(wm, "a", {"x": 1})])
        assert deltas == []

    def test_adding_blocker_retracts(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        m.process_changes([add(wm, "a", {"x": 1})])
        deltas = m.process_changes([add(wm, "b", {"y": 1})])
        assert [sign for _p, _t, sign in deltas] == [-1]

    def test_removing_blocker_rederives(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        cb = add(wm, "b", {"y": 1})
        m.process_changes([cb, add(wm, "a", {"x": 1})])
        deltas = m.process_changes([rm(wm, cb.wme)])
        assert [sign for _p, _t, sign in deltas] == [1]

    def test_two_blockers_count_correctly(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        cb1 = add(wm, "b", {"y": 1})
        cb2 = add(wm, "b", {"y": 1})
        m.process_changes([cb1, cb2, add(wm, "a", {"x": 1})])
        assert m.process_changes([rm(wm, cb1.wme)]) == []
        deltas = m.process_changes([rm(wm, cb2.wme)])
        assert [sign for _p, _t, sign in deltas] == [1]

    def test_unrelated_blocker_ignored(self):
        m = matcher_for(self.SRC)
        wm = WorkingMemory()
        deltas = m.process_changes([add(wm, "b", {"y": 99}), add(wm, "a", {"x": 1})])
        assert [sign for _p, _t, sign in deltas] == [1]


class TestStats:
    def test_counters_accumulate(self, figure_2_1):
        from repro.ops5.interpreter import Interpreter

        interp = Interpreter(figure_2_1)
        interp.run()
        s = interp.stats
        assert s.wme_changes == 8  # 4 startup makes + 2 modifies (2 each)
        assert s.node_activations > 0
        assert s.cs_changes >= 2

    def test_memory_kind_selection(self):
        m_lin = matcher_for("(p r (a) --> (halt))", memory="linear")
        m_hash = matcher_for("(p r (a) --> (halt))", memory="hash")
        assert m_lin.memory.kind == "linear"
        assert m_hash.memory.kind == "hash"


class TestTraceRecording:
    def test_trace_captures_tasks(self):
        rec = TraceRecorder()
        m = matcher_for("(p r (a ^x <v>) (b ^y <v>) --> (halt))", recorder=rec)
        wm = WorkingMemory()
        m.process_changes([add(wm, "a", {"x": 1}), add(wm, "b", {"y": 1})])
        trace = rec.trace
        assert trace.n_changes == 2
        kinds = {t.kind for t in trace.tasks}
        assert kinds == {"join", "term"}

    def test_trace_parent_links(self):
        rec = TraceRecorder()
        m = matcher_for("(p r (a ^x <v>) (b ^y <v>) --> (halt))", recorder=rec)
        wm = WorkingMemory()
        m.process_changes([add(wm, "a", {"x": 1}), add(wm, "b", {"y": 1})])
        term = next(t for t in rec.trace.tasks if t.kind == "term")
        parent = rec.trace.tasks[term.parent]
        assert parent.kind == "join"
        assert parent.n_children == 1

    def test_trace_lines_recorded_for_joins(self):
        rec = TraceRecorder()
        m = matcher_for("(p r (a ^x <v>) (b ^y <v>) --> (halt))", recorder=rec)
        wm = WorkingMemory()
        m.process_changes([add(wm, "a", {"x": 1})])
        join = next(t for t in rec.trace.tasks if t.kind == "join")
        assert join.line >= 0
