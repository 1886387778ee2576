"""run_suite: one run per scenario, artifact emission, obs integration."""

import json
import os

import pytest

from repro.obs import events as obs_events
from repro.perf.runner import run_suite
from repro.perf.scenarios import SCENARIOS, Result, Scenario
from repro.perf.schema import PROFILE_COLUMNS, validate_bench_doc


def counting_scenario(counter, metrics=("m",), precondition=None):
    """A cheap fake scenario whose run() increments ``counter['runs']``."""

    def run():
        counter["runs"] += 1
        return Result(
            metrics={name: float(counter["runs"]) for name in metrics}
        )

    return Scenario(
        scenario_id="fake",
        title="fake",
        metrics=tuple(metrics),
        run=run,
        precondition=precondition,
    )


class TestRunSuite:
    def test_artifact_written_and_schema_valid(self, tmp_path):
        counter = {"runs": 0}
        registry = {"fake": counting_scenario(counter, metrics=("m", "n"))}
        doc, path = run_suite(out_dir=str(tmp_path), registry=registry)
        assert validate_bench_doc(doc) == []
        assert set(doc) == {"schema", "suite", "scenarios"}
        assert doc["scenarios"]["fake"] == {
            "title": "fake", "metrics": {"m": 1.0, "n": 1.0}}
        # On-disk copy round-trips and no temp file leaks behind it.
        assert json.loads((tmp_path / "BENCH_smoke.json").read_text()) == doc
        assert os.path.basename(path) == "BENCH_smoke.json"
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_smoke.json"]

    def test_stable_scenario_forced_to_single_rep(self, tmp_path):
        # No warm-up, no repetition: a deterministic value needs neither.
        counter = {"runs": 0}
        run_suite(out_dir=str(tmp_path),
                  registry={"fake": counting_scenario(counter)})
        assert counter["runs"] == 1

    def test_explicit_scenarios_write_a_custom_artifact(self, tmp_path):
        doc, path = run_suite(scenario_ids=("corgi-adversarial",),
                              out_dir=str(tmp_path))
        assert doc["suite"] == "custom"
        assert list(doc["scenarios"]) == ["corgi-adversarial"]
        assert os.path.basename(path) == "BENCH_custom.json"

    def test_failed_precondition_is_skipped_with_reason(self, tmp_path):
        counter = {"runs": 0}
        registry = {"fake": counting_scenario(
            counter, precondition=lambda: "host cannot")}
        doc, _ = run_suite(out_dir=str(tmp_path), registry=registry)
        assert counter["runs"] == 0
        assert doc["scenarios"]["fake"] == {
            "title": "fake", "metrics": {}, "skipped": "host cannot"}
        assert validate_bench_doc(doc) == []

    def test_metric_name_mismatch_rejected(self, tmp_path):
        bad = Scenario(
            scenario_id="bad",
            title="bad",
            metrics=("declared",),
            run=lambda: Result(metrics={"produced": 1.0}),
        )
        with pytest.raises(ValueError, match="declares"):
            run_suite(out_dir=str(tmp_path), registry={"bad": bad})

    def test_unknown_scenario_propagates(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenarios"):
            run_suite(scenario_ids=("nope",), out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestObsProfileIntegration:
    """A real profiled scenario: its one bus-on run must capture the
    per-node count profile with node→production attribution, and leave
    the bus off."""

    def test_profiled_run_attaches_profile_and_counters(self, tmp_path):
        registry = {"match-weaver": SCENARIOS["match-weaver"]}
        doc, path = run_suite(out_dir=str(tmp_path), registry=registry)
        assert validate_bench_doc(doc) == []
        entry = doc["scenarios"]["match-weaver"]
        rows = entry["profile"]
        assert rows == sorted(rows)  # node-id order, not hottest-first
        assert all(len(row) == len(PROFILE_COLUMNS) for row in rows)
        assert all(row[2] != "?" for row in rows)  # owner resolved
        # The profile is the same run the counter came from.
        assert sum(row[3] for row in rows) == entry["metrics"]["activations"]
        # One line per row on disk: a moved counter is a one-line diff.
        text = open(path, encoding="utf-8").read()
        assert text.count("\n") < len(rows) + 40
        assert json.loads(text) == doc
        # The profiled run must not leave the global bus enabled.
        assert not obs_events.enabled()
        assert obs_events.snapshot().workers == {}
