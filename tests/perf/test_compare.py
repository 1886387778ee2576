"""The exact gate: classification, one-sided metrics, attribution."""

import copy

import pytest

from repro.perf.compare import attribute, compare_docs, load_doc

from .helpers import make_doc, make_scenario


def one_metric_docs(base_value, cur_value, profile=None, cur_profile=None):
    base = make_doc({"s": make_scenario({"m": base_value}, profile=profile)})
    cur = make_doc({"s": make_scenario({"m": cur_value}, profile=cur_profile)})
    return base, cur


def classification(result, key):
    return next(d.classification for d in result.deltas if d.key == key)


class TestClassification:
    def test_unchanged_tree_is_all_unchanged(self):
        base = make_doc({"s": make_scenario({"count": 20168.0,
                                             "speedup": 5.152527260445817})})
        result = compare_docs(base, copy.deepcopy(base))
        assert result.ok
        assert {d.classification for d in result.deltas} == {"same"}

    def test_zero_tolerance_exact_metric(self):
        # Equality never flags; any movement does, in either direction
        # and however small.
        assert classification(
            compare_docs(*one_metric_docs(0.0, 0.0)), "s.m") == "same"
        for cur in (1.0, -1.0, 5e-16):
            result = compare_docs(*one_metric_docs(0.0, cur))
            assert classification(result, "s.m") == "changed"
            assert not result.ok

    def test_changed_value_prints_unrounded(self):
        result = compare_docs(*one_metric_docs(4.424373494015836,
                                               4.424373494015837))
        out = result.format()
        assert "4.424373494015836" in out and "4.424373494015837" in out
        assert "FAILED (1 metrics not same)" in out


class TestOneSidedMetrics:
    """``added`` and ``removed`` gate: nothing enters or leaves the
    baseline unnoticed."""

    def test_metric_only_in_current_is_added(self):
        base = make_doc({"s": make_scenario({"old": 1.0})})
        cur = make_doc({"s": make_scenario({"old": 1.0, "new": 2.0})})
        result = compare_docs(base, cur)
        assert classification(result, "s.new") == "added"
        assert [d.key for d in result.failures] == ["s.new"]

    def test_metric_only_in_baseline_is_removed(self):
        base = make_doc({"s": make_scenario({"old": 1.0, "gone": 2.0})})
        cur = make_doc({"s": make_scenario({"old": 1.0})})
        result = compare_docs(base, cur)
        assert classification(result, "s.gone") == "removed"
        assert [d.key for d in result.failures] == ["s.gone"]

    def test_empty_baseline_everything_added(self):
        result = compare_docs(make_doc({}),
                              make_doc({"s": make_scenario({"m": 1.0})}))
        assert not result.ok
        assert {d.classification for d in result.deltas} == {"added"}

    def test_whole_scenario_added(self):
        base = make_doc({"s": make_scenario({"m": 1.0})})
        cur = make_doc({"s": make_scenario({"m": 1.0}),
                        "s2": make_scenario({"m2": 3.0})})
        result = compare_docs(base, cur)
        assert classification(result, "s2.m2") == "added"
        assert not result.ok

    def test_whole_scenario_removed(self):
        base = make_doc({"s": make_scenario({"m": 1.0}),
                         "s2": make_scenario({"m2": 3.0})})
        cur = make_doc({"s": make_scenario({"m": 1.0})})
        result = compare_docs(base, cur)
        assert classification(result, "s2.m2") == "removed"
        assert not result.ok


class TestSkipped:
    def test_scenario_skipped_by_current_host_passes_with_reason(self):
        base = make_doc({"s": make_scenario({"m": 1.0, "n": 2.0})})
        cur = make_doc({"s": make_scenario({}, skipped="no fork here")})
        result = compare_docs(base, cur)
        assert result.ok
        assert {d.classification for d in result.deltas} == {"skipped"}
        assert result.counts()["skipped"] == 2
        assert "skipped 's': no fork here" in result.format()

    def test_baseline_skipped_but_current_measured_is_added(self):
        # A baseline seeded where the scenario could not run gates
        # nothing; a host that can run it must fail until it is re-seeded.
        base = make_doc({"s": make_scenario({}, skipped="no fork here")})
        cur = make_doc({"s": make_scenario({"m": 1.0})})
        result = compare_docs(base, cur)
        assert classification(result, "s.m") == "added"
        assert not result.ok


#: Two productions: ``cross-pair`` (two joins and a terminal) and
#: ``quiet-rule``; rows are schema.PROFILE_COLUMNS.
def profile(join_acts, join_examined, quiet_acts=3):
    return [
        [7, "join", "quiet-rule", quiet_acts, 3, 1],
        [41, "join", "cross-pair", 10, 20, 5],
        [42, "join", "cross-pair", join_acts, join_examined, 5],
        [43, "term", "cross-pair", 5, 0, 0],
    ]


class TestInjectedSlowdownAttribution:
    """A synthetic count movement must be *named*: production first,
    then its nodes, ranked by count deltas alone."""

    def test_moved_production_and_node_named_first(self):
        base, cur = one_metric_docs(
            100.0, 190.0,
            profile=profile(10, 50), cur_profile=profile(100, 900, 4))
        result = compare_docs(base, cur)
        top = result.movers["s"][0]
        assert top.label == "cross-pair"
        assert top.baseline == (25, 70, 10) and top.current == (115, 920, 10)
        assert top.deltas == (90, 850, 0)
        assert [n.label for n in top.nodes] == ["#42 join"]
        assert top.nodes[0].deltas == (90, 850, 0)
        assert [m.label for m in result.movers["s"]] == [
            "cross-pair", "quiet-rule"]
        out = result.format()
        assert "cross-pair" in out and "#42 join" in out
        assert "activations 10 -> 100 (+90)" in out

    def test_ties_on_activations_fall_to_examined(self):
        base = make_scenario({"m": 1.0}, profile=[
            [1, "join", "a", 5, 10, 1], [2, "join", "b", 5, 10, 1]])
        cur = make_scenario({"m": 2.0}, profile=[
            [1, "join", "a", 6, 11, 1], [2, "join", "b", 6, 40, 1]])
        assert [m.label for m in attribute(base, cur)] == ["b", "a"]

    def test_node_on_one_side_only_counts_from_zero(self):
        base = make_scenario({"m": 1.0}, profile=[[1, "join", "a", 5, 10, 1]])
        cur = make_scenario({"m": 2.0}, profile=[[1, "join", "a", 5, 10, 1],
                                                 [9, "join", "z", 7, 0, 0]])
        (mover,) = attribute(base, cur)
        assert mover.label == "z" and mover.baseline == (0, 0, 0)
        assert mover.nodes[0].label == "#9 join"

    def test_limit_caps_productions(self):
        base = make_scenario({"m": 1.0}, profile=[
            [i, "join", f"p{i}", 1, 0, 0] for i in range(8)])
        cur = make_scenario({"m": 2.0}, profile=[
            [i, "join", f"p{i}", 2 + i, 0, 0] for i in range(8)])
        assert [m.label for m in attribute(base, cur, limit=2)] == ["p7", "p6"]

    def test_missing_profile_yields_empty_attribution(self):
        result = compare_docs(*one_metric_docs(1.0, 5.0))
        assert result.movers == {"s": []}
        assert "no profile recorded" in result.format()

    def test_unregressed_scenarios_get_no_attribution(self):
        base, cur = one_metric_docs(
            1.0, 1.0, profile=profile(10, 50), cur_profile=profile(100, 900))
        assert compare_docs(base, cur).movers == {}


class TestValidationAndResolution:
    def test_invalid_baseline_rejected(self):
        cur = make_doc({"s": make_scenario({"m": 1.0})})
        with pytest.raises(ValueError, match="baseline artifact invalid"):
            compare_docs({"schema": "repro.bench/2"}, cur)

    def test_previous_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text('{"schema": "repro.bench/1", "suite": "smoke", '
                        '"scenarios": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="expected 'repro.bench/2'"):
            load_doc(str(path))

    def test_load_doc_errors_name_the_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_doc(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_doc(str(bad))
