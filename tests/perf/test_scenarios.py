"""Registry integrity and scenario selection."""

import json
import pathlib

import pytest

import repro.perf
from repro.perf.scenarios import SCENARIOS, select


class TestRegistryIntegrity:
    def test_ids_match_keys_and_suites_are_known(self):
        for sid, scenario in SCENARIOS.items():
            assert scenario.scenario_id == sid
            assert callable(scenario.run)
            assert scenario.metrics
        # The one suite is the committed baseline's: every registered
        # scenario is gated there, and the baseline holds no other.
        committed = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
        doc = json.loads((committed / "BENCH_smoke.json").read_text())
        assert doc["suite"] == "smoke" and set(doc["scenarios"]) == set(SCENARIOS)

    def test_metric_names_unique_per_scenario(self):
        for scenario in SCENARIOS.values():
            names = scenario.metrics
            assert len(names) == len(set(names)), scenario.scenario_id

    def test_smoke_suite_members(self):
        """``select()`` with no ids is the whole registry -- the smoke
        suite -- in registration order."""
        assert list(select()) == list(SCENARIOS) == [
            "match-weaver", "sim-weaver", "fabric-mp", "serve-loadgen",
            "serve-meter", "corgi-adversarial", "policy-sweep",
        ]

    def test_nothing_reads_a_clock(self):
        """The package times nothing: wall time is ``bench/``'s job."""
        for path in pathlib.Path(repro.perf.__file__).parent.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            for clock in ("perf_counter", "monotonic", "import time",
                          "wall_seconds", "match_seconds"):
                assert clock not in text, (path.name, clock)

    def test_fabric_mp_needs_fork_not_cores(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        from repro.engines import mp_supported

        reason = SCENARIOS["fabric-mp"].precondition()
        assert (reason is None) == mp_supported()


class TestCorgiAdversarial:
    def test_stable_token_metrics(self):
        from repro.perf.scenarios import _ADV_CROSS

        metrics = SCENARIOS["corgi-adversarial"].run().metrics
        n = _ADV_CROSS["n_items"]
        # The counted contract: corgi derives nothing on either shape,
        # eager Rete pays at least the initial cross-product.
        assert metrics["cross_corgi_tokens"] == 0.0
        assert metrics["deep_corgi_tokens"] == 0.0
        assert metrics["cross_rete_tokens"] >= n * (n - 1) / 2
        assert metrics["deep_rete_tokens"] > 0.0


class TestSelect:
    def test_explicit_ids_preserve_order(self):
        out = select(scenario_ids=("sim-weaver", "match-weaver"))
        assert list(out) == ["sim-weaver", "match-weaver"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            select(scenario_ids=("match-weaver", "nope"))


class TestPolicySweep:
    def test_covers_every_registered_policy(self):
        """Registry-sync guard: a policy added to the dispatch registry
        without a column in the sweep matrix fails here."""
        from repro.parallel.policy import POLICY_NAMES

        names = set(SCENARIOS["policy-sweep"].metrics)
        for policy in POLICY_NAMES:
            key = policy.replace("-", "_")
            assert f"{key}_speedup_1p7_8q" in names
            assert f"{key}_steals" in names

    def test_work_stealing_column_is_the_legacy_simulation(self):
        """The simulator always dispatched work-stealing-shaped (push
        home, steal when dry); the policy axis must reproduce the
        pre-policy numbers exactly in its work-stealing column."""
        sweep = SCENARIOS["policy-sweep"].run().metrics
        legacy = SCENARIOS["sim-weaver"].run().metrics
        assert (sweep["work_stealing_speedup_1p7_8q"]
                == legacy["speedup_1p7_8q"])
