"""Integration tests for the recognize-act interpreter."""

import pytest

from repro.ops5.errors import RuntimeOps5Error
from repro.ops5.interpreter import Interpreter
from tests.conftest import run_program


class TestBasicCycle:
    def test_figure_2_1_program(self, figure_2_1):
        interp, result = run_program(figure_2_1)
        assert sorted(result.output) == ["selected b1", "selected b3"]
        assert result.cycles == 2
        assert not result.halted  # quiescence, no (halt)

    def test_halt(self):
        _, r = run_program("(p r (a) --> (halt)) (startup (make a))")
        assert r.halted
        assert r.cycles == 1

    def test_quiescence_when_no_rules_match(self):
        _, r = run_program("(p r (a) --> (halt)) (startup (make b))")
        assert r.cycles == 0
        assert not r.halted

    def test_max_cycles_cap(self):
        src = "(p loop (a ^n <n>) --> (modify 1 ^n (compute <n> + 1)))(startup (make a ^n 0))"
        _, r = run_program(src, max_cycles=7)
        assert r.cycles == 7

    def test_firings_record_timetags(self):
        _, r = run_program("(p r (a) --> (halt)) (startup (make a))")
        assert r.firings[0].production == "r"
        assert len(r.firings[0].timetags) == 1

    def test_startup_runs_once(self):
        interp = Interpreter("(p r (a) --> (halt)) (startup (make a))")
        interp.startup()
        interp.startup()
        assert len(interp.wm) == 1


class TestRefractionAndRecency:
    def test_rule_fires_once_per_instantiation(self):
        src = "(p r (a ^v <v>) --> (write saw <v>)) (startup (make a ^v 1) (make a ^v 2))"
        _, r = run_program(src)
        assert sorted(r.output) == ["saw 1", "saw 2"]
        assert r.cycles == 2

    def test_lex_fires_most_recent_first(self):
        src = "(p r (a ^v <v>) --> (write saw <v>)) (startup (make a ^v 1) (make a ^v 2))"
        _, r = run_program(src)
        assert r.output == ["saw 2", "saw 1"]

    def test_mea_strategy(self):
        src = """
        (p r (ctl ^s go) (a ^v <v>) --> (write saw <v>) (remove 2))
        (startup (make a ^v old) (make ctl ^s go) (make a ^v new))
        """
        _, r_mea = run_program(src, strategy="mea")
        # Both instantiations share the ctl wme as first CE; MEA then
        # falls back to recency of the rest: 'new' first.
        assert r_mea.output == ["saw new", "saw old"]


class TestNegation:
    def test_negated_ce_blocks(self):
        src = "(p r (a) - (b) --> (write fired)) (startup (make a) (make b))"
        _, r = run_program(src)
        assert r.output == []

    def test_negation_toggles(self):
        src = """
        (p unblock (b) (c) --> (remove 1) (remove 2))
        (p r (a) - (b) --> (write fired) (halt))
        (startup (make a) (make b) (make c))
        """
        _, r = run_program(src)
        assert r.output == ["fired"]

    def test_negation_retracts_mid_run(self):
        src = """
        (p blocker (t) --> (remove 1) (make b))
        (p r (a) - (b) --> (write fired))
        (startup (make a) (make t))
        """
        _, r = run_program(src)
        # blocker fires first (recency of t vs a? both in CS; blocker's
        # (t) is newer), making (b), which retracts r before it fires.
        assert "fired" not in r.output


class TestWMEntryPoints:
    def test_add_wme_triggers_match(self):
        interp = Interpreter("(p r (a ^v 1) --> (write hit))")
        interp.startup()
        interp.add_wme("a", {"v": 1})
        firing = interp.step()
        assert firing is not None
        assert interp.output == ["hit"]

    def test_remove_wme_retracts(self):
        interp = Interpreter("(p r (a) --> (write hit))")
        w = interp.add_wme("a")
        assert len(interp.conflict_set) == 1
        interp.remove_wme(w)
        assert len(interp.conflict_set) == 0

    def test_conflict_set_names(self):
        interp = Interpreter("(p r (a) --> (halt)) (p s (a) --> (halt))")
        interp.add_wme("a")
        assert interp.conflict_set_names() == ["r", "s"]


class TestModes:
    @pytest.mark.parametrize("memory", ["linear", "hash"])
    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_all_mode_combinations_agree(self, figure_2_1, memory, mode):
        _, r = run_program(figure_2_1, memory=memory, mode=mode)
        assert sorted(r.output) == ["selected b1", "selected b3"]

    def test_stats_exposed(self, figure_2_1):
        interp, _ = run_program(figure_2_1)
        assert interp.stats.wme_changes > 0
        assert interp.stats.node_activations > 0


class TestAcceptStream:
    SRC = """
    (p read (tick ^n <n>) --> (remove 1) (make got ^n <n> ^v (accept)))
    (startup (make tick ^n 1) (make tick ^n 2))
    """

    def test_each_accept_consumes_the_next_value(self):
        # Regression: every firing used to read a fresh copy of the
        # stream, so both ticks got 10 and nothing was ever consumed.
        interp = Interpreter(self.SRC, input_values=[10, 20])
        interp.run()
        got = sorted((w.get("n"), w.get("v")) for w in interp.wm if w.klass == "got")
        assert got == [(1, 20), (2, 10)]  # LEX: the newer tick reads first
        assert interp.input_values == []

    def test_exhausted_stream_is_an_error(self):
        interp = Interpreter(
            self.SRC + "(startup (make tick ^n 3))", input_values=[10, 20]
        )
        with pytest.raises(RuntimeOps5Error, match="no pending input"):
            interp.run()
        assert interp.cycle == 3 and interp.input_values == []

    def test_the_callers_list_is_left_alone(self):
        values = [10, 20]
        Interpreter(self.SRC, input_values=values).run()
        assert values == [10, 20]

    def test_startup_and_rules_share_the_stream(self):
        interp = Interpreter(
            "(p r (a ^v <v>) --> (make b ^v (accept)))"
            "(startup (make a ^v (accept)))",
            input_values=[1, 2],
        )
        interp.run()
        assert [(w.klass, w.get("v")) for w in interp.wm] == [("a", 1), ("b", 2)]


class TestErrors:
    def test_removing_same_wme_twice_across_rules(self):
        # Two rules both trying to remove the same wme: the second
        # firing's instantiation disappears when the wme does, so this
        # is safe and must not raise.
        src = """
        (p r1 (a) --> (remove 1))
        (p r2 (a) --> (remove 1))
        (startup (make a))
        """
        _, r = run_program(src)
        assert r.cycles == 1

    def test_context_manager_close(self, figure_2_1):
        with Interpreter(figure_2_1) as interp:
            interp.run()
        # Sequential matcher has no close; the protocol is a no-op.


class TestClose:
    def test_close_is_idempotent(self, figure_2_1):
        interp = Interpreter(figure_2_1)
        interp.close()
        interp.close()  # second call must be a no-op, not an error

    def test_close_after_context_exit(self, figure_2_1):
        with Interpreter(figure_2_1) as interp:
            interp.run()
        interp.close()  # explicit close after __exit__ already closed

    def test_close_releases_matcher_once(self, figure_2_1):
        closes = []

        class Closeable:
            def process_changes(self, changes):
                return []

            def close(self):
                closes.append(1)

        interp = Interpreter(figure_2_1, matcher=Closeable())
        with interp:
            pass
        interp.close()
        interp.close()
        assert closes == [1]


class TestOutcomes:
    SPIN = "(p l (a ^n <n>) --> (modify 1 ^n (compute <n> + 1)))(startup (make a ^n 0))"

    def test_halted_outcome(self):
        _, r = run_program("(p r (a) --> (halt)) (startup (make a))")
        assert r.outcome == "halted"
        assert r.halted and not r.exhausted

    def test_quiescent_outcome(self):
        _, r = run_program("(p r (a) --> (halt)) (startup (make b))")
        assert r.outcome == "quiescent"
        assert not r.halted and not r.exhausted

    def test_exhausted_outcome_distinct_from_quiescence(self):
        _, r = run_program(self.SPIN, max_cycles=5)
        assert r.cycles == 5
        assert r.outcome == "exhausted"
        assert r.exhausted and not r.halted

    def test_exact_budget_finish_is_not_exhausted(self):
        # One firing available, budget of exactly one: the budget is
        # spent but nothing is left waiting, so this is quiescence.
        _, r = run_program(
            "(p r (a) --> (remove 1)) (startup (make a))", max_cycles=1
        )
        assert r.cycles == 1
        assert r.outcome == "quiescent"

    def test_run_cycles_resumes_and_reports_slices(self):
        interp = Interpreter(self.SPIN)
        first = interp.run_cycles(3)
        second = interp.run_cycles(2)
        assert first.outcome == "exhausted" and len(first.firings) == 3
        assert second.outcome == "exhausted" and len(second.firings) == 2
        assert second.cycles == 5  # cumulative cycle counter
        assert len(second.output) == 0  # slice-local output only

    def test_zero_budget_runs_nothing(self):
        interp = Interpreter(self.SPIN)
        r = interp.run_cycles(0)
        assert r.firings == [] and r.outcome == "exhausted"

    def test_deadline_outcome(self):
        interp = Interpreter(self.SPIN)
        from time import monotonic

        r = interp.run_cycles(10_000, deadline=monotonic())  # already past
        assert r.outcome == "deadline"
        assert r.deadline_hit and not r.exhausted


class TestApplyTransaction:
    def _fresh(self):
        return Interpreter("(p r (a ^n <n>) (b) --> (write pair <n>))")

    def test_make_returns_timetags_in_op_order(self):
        from repro.ops5.interpreter import WMOp

        interp = self._fresh()
        tags = interp.apply_transaction(
            [WMOp.make("a", {"n": 1}), WMOp.make("b")]
        )
        assert tags == [1, 2]
        assert len(interp.conflict_set) == 1

    def test_modify_creates_fresh_timetag(self):
        from repro.ops5.interpreter import WMOp

        interp = self._fresh()
        (tag, _) = interp.apply_transaction(
            [WMOp.make("a", {"n": 1}), WMOp.make("b")]
        )
        (new,) = interp.apply_transaction([WMOp.modify(tag, {"n": 2})])
        assert new != tag
        assert interp.wm.by_timetag(tag) is None
        assert interp.wm.by_timetag(new).get("n") == 2

    def test_invalid_op_rolls_back_everything(self):
        from repro.ops5.interpreter import TransactionError, WMOp

        interp = self._fresh()
        with pytest.raises(TransactionError):
            interp.apply_transaction(
                [WMOp.make("a", {"n": 1}), WMOp.remove(77)]
            )
        assert len(interp.wm) == 0
        assert len(interp.conflict_set) == 0

    def test_remove_then_modify_same_timetag_rejected(self):
        from repro.ops5.interpreter import TransactionError, WMOp

        interp = self._fresh()
        (tag,) = interp.apply_transaction([WMOp.make("a", {"n": 1})])
        with pytest.raises(TransactionError):
            interp.apply_transaction(
                [WMOp.remove(tag), WMOp.modify(tag, {"n": 2})]
            )
        assert interp.wm.by_timetag(tag) is not None

    def test_unknown_op_kind_rejected(self):
        from repro.ops5.interpreter import TransactionError, WMOp

        interp = self._fresh()
        with pytest.raises(TransactionError):
            interp.apply_transaction([WMOp(op="explode")])

    def test_batch_feeds_matcher_once(self):
        from repro.ops5.interpreter import WMOp

        interp = self._fresh()
        interp.apply_transaction(
            [WMOp.make("a", {"n": 1}), WMOp.make("a", {"n": 2}), WMOp.make("b")]
        )
        r = interp.run(max_cycles=10)
        assert sorted(r.output) == ["pair 1", "pair 2"]
