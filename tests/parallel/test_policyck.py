"""Tests for the policyck differential battery and its CLI verb.

The heavy proof — every policy, every engine, all eight conformance
programs — runs in the conformance suite and the CI policyck smoke
step; here we pin the battery *machinery*: case construction, the
queue-count defaulting, report formatting and replay lines, skip
handling, and argument validation.
"""

from __future__ import annotations

import pytest

from repro.check import PROGRAMS, Sweep, run_program
from repro.cli import main
from repro.parallel.policyck import run_battery, run_case


@pytest.fixture(scope="module")
def blocks_reference():
    return run_program(PROGRAMS["blocks"](), "sequential", {})


class TestRunCase:
    def test_threaded_case_matches_reference(self, blocks_reference):
        case = run_case("blocks", "threaded", "least-loaded", blocks_reference)
        assert case.ok, case.format()
        assert dict(case.label)["queues"] == 2  # one per worker
        assert dict(case.stats)["cycles"] == blocks_reference["cycles"]

    def test_queue_override_wins(self, blocks_reference):
        case = run_case(
            "blocks", "threaded", "work-stealing", blocks_reference, n_queues=1
        )
        assert case.ok, case.format()
        assert dict(case.label)["queues"] == 1

    def test_sequential_engine_is_rejected(self, blocks_reference):
        with pytest.raises(ValueError, match="requires a parallel engine"):
            run_case("blocks", "sequential", "affinity", blocks_reference)

    def test_divergence_is_reported_not_raised(self, blocks_reference):
        doctored = dict(blocks_reference, trace="bogus", cycles=-1)
        case = run_case("blocks", "threaded", "round-robin", doctored)
        assert not case.ok
        found = [finding.format() for finding in case.findings]
        assert "[trace] differs from sequential reference" in found
        assert "[cycles] differs from sequential reference" in found


class TestBattery:
    def test_registry_subset_runs_and_formats(self):
        result = run_battery(
            programs=["blocks"], engines=["threaded"],
            policies=["round-robin", "rebalance"],
        )
        assert result.ok
        assert len(result.reports) == 2
        assert result.format() == "policyck battery: 2 cases, 0 failing, 0 skipped"
        assert result.reports[0].describe() == (
            "policy=round-robin engine=threaded queues=2 program=blocks"
        )

    def test_unknown_program_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown program"):
            run_battery(programs=["hanoi"], engines=["threaded"])

    def test_failure_lines_carry_replay_commands(self, blocks_reference):
        doctored = dict(blocks_reference, trace="bogus")
        case = run_case("blocks", "threaded", "affinity", doctored)
        result = Sweep("policyck", "battery", "cases", [case])
        assert not result.ok
        text = result.format()
        assert ("replay: python -m repro check policyck --policies affinity"
                " --engines threaded --programs blocks --workers 2") in text

    def test_skips_render(self):
        result = Sweep("policyck", "battery", "cases",
                       skipped=["engine=mp (needs the fork start method)"])
        assert result.ok
        assert "SKIP engine=mp" in result.format()


class TestCli:
    def test_smoke_run_exits_zero(self, capsys):
        rc = main(["check", "policyck", "--policies", "least-loaded",
                   "--engines", "threaded", "--programs", "blocks"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 cases, 0 failing" in out

    def test_unknown_policy_is_clean_exit(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["check", "policyck", "--policies", "fifo"])

    def test_unknown_engine_is_clean_exit(self):
        with pytest.raises(SystemExit, match="requires a parallel engine"):
            main(["check", "policyck", "--engines", "corgi"])

    def test_unknown_program_is_clean_exit(self):
        with pytest.raises(SystemExit, match="unknown program"):
            main(["check", "policyck", "--programs", "hanoi"])

    def test_policy_names_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "policyck", "--help"])
        assert "policyck" in capsys.readouterr().out
