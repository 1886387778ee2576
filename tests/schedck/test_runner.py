"""Differential schedule runs: determinism, config grid, fuzz smoke."""

import shlex

import pytest

from repro.cli import main
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.schedck.runner import DEFAULT_GRID, EngineConfig, run_schedule, sweep

from . import plants


class TestRunSchedule:
    def test_report_byte_identical_across_runs(self):
        a = run_schedule(17)
        b = run_schedule(17)
        assert a.format() == b.format()

    @pytest.mark.parametrize("policy", ["random", "pct"])
    def test_all_policies_pass_on_shallow_corpus(self, policy):
        report = run_schedule(23, policy_spec=policy)
        assert report.ok, report.format()
        assert not report.truncated

    @pytest.mark.parametrize("config", DEFAULT_GRID, ids=lambda c: c.describe())
    def test_full_config_grid(self, config):
        report = run_schedule(5, config=config)
        assert report.ok, report.format()

    def test_pinned_program_requires_batches(self):
        with pytest.raises(ValueError):
            run_schedule(0, program="(p r (a) --> (halt))")

    def test_pinned_program_and_batches(self):
        wm = WorkingMemory()
        batch = [
            WMEChange(1, wm.add("a", {"x": 1})),
            WMEChange(1, wm.add("b", {"x": 1})),
        ]
        report = run_schedule(
            3,
            program="(p r (a ^x <v>) (b ^x <v>) --> (halt))",
            batches=[batch],
        )
        assert report.ok, report.format()
        stats = dict(report.stats)
        assert stats["tokens_emitted.seq"] == stats["tokens_emitted.par"] == 1

    def test_seed_reproduces_program_shape(self):
        a = run_schedule(29)
        b = run_schedule(29)
        # The "program:" and "schedule:" lines carry rule, change, batch
        # and decision counts.
        assert len(a.body) == 2 and a.body == b.body

    def test_engine_error_reported_not_raised(self):
        # A pinned schedule on a broken network must come back as an
        # engine_error violation, never an exception out of the runner.
        wm = WorkingMemory()
        batch = [WMEChange(1, wm.add("a", {"x": 1}))]
        report = run_schedule(
            0,
            program="(p r (a ^x <v>) (b ^x <v>) --> (halt))",
            batches=[batch],
            max_steps=50,  # force truncation path too, while we're here
        )
        assert isinstance(report.ok, bool)


class TestSweep:
    def test_smoke_sweep_passes(self):
        result = sweep(24, base_seed=100)
        assert result.ok, result.format()
        assert len(result.reports) == 24

    def test_sweep_rotates_configs_and_policies(self):
        result = sweep(len(DEFAULT_GRID) * 2, base_seed=200)
        assert result.ok, result.format()
        seen = {r.describe().split(" ", 1)[1] for r in result.reports}
        assert len(seen) == len(DEFAULT_GRID) * 2

    def test_sweep_reports_failures(self, monkeypatch, capsys):
        """A planted defect fails the sweep, and the replay line under
        its FAIL line reproduces the failing report when pasted."""
        monkeypatch.setattr(*plants.TASKCOUNT_EARLY)
        result = sweep(1, base_seed=2, configs=[EngineConfig()], policies=["random"])
        assert result.ok is False
        summary, fail, replay = result.format().splitlines()
        assert summary == "schedck sweep: 1 schedules, 1 failing, 0 truncated"
        assert fail.startswith(
            "  FAIL seed=2 policy=random config=1+2/1q/simple/64l — [conflict_set]"
        )
        argv = shlex.split(replay.split("replay: python -m repro ", 1)[1])
        assert main(argv) == 1
        assert capsys.readouterr().out == result.reports[0].format() + "\n"
