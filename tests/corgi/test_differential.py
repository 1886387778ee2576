"""The pinned differential corpus: corgi vs the sequential oracle on
generated programs, plus the sweep/replay UX guarantees.

Mirrors the schedck conventions: a fixed seed corpus that runs in
tier-1 time, byte-stable reports, and failure lines that carry a
paste-ready ``python -m repro check corgick`` replay command.
"""

from __future__ import annotations

import pytest

from repro.check import Finding, Report, Sweep
from repro.cli import main
from repro.corgi.diffcheck import (
    PROFILE_ROTATION,
    PROFILES,
    profile_for,
    run_seed,
    sweep,
)

#: The pinned corpus: enough seeds to cycle the profile rotation twenty
#: times, small enough for tier-1.
CORPUS_SEEDS = range(60)


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_pinned_corpus_agrees(seed):
    report = run_seed(seed)
    assert report.ok, report.format()


def test_reports_are_byte_stable():
    assert run_seed(3).format() == run_seed(3).format()


def test_profile_rotation_covers_every_corpus():
    profiles = {profile_for(seed) for seed in CORPUS_SEEDS}
    assert profiles == set(PROFILE_ROTATION) == set(PROFILES)


def test_corpus_exercises_the_interesting_machinery():
    """Guard the corpus itself: across the pinned seeds the generated
    programs must actually drive unlink/relink transitions and negation
    gates — otherwise the differential pass is vacuous."""
    totals = {"unlinks": 0, "relinks": 0, "lazy_skips": 0, "gate_prunes": 0}
    deltas_seen = 0
    for seed in CORPUS_SEEDS:
        report = run_seed(seed)
        stats = dict(report.stats)
        for key in totals:
            totals[key] += stats[f"corgi.{key}"]
        deltas_seen += stats["tokens_emitted.corgi"]
    assert totals["relinks"] > 0
    assert totals["unlinks"] > 0
    assert totals["lazy_skips"] > 0
    assert totals["gate_prunes"] > 0
    assert deltas_seen > 0


def test_sweep_failure_lines_carry_replay_commands():
    failing = Report(
        battery="corgick",
        label=[("seed", 41), ("profile", "dense")],
        args={"seed": 41, "profile": "dense"},
        findings=[Finding("conflict_set", 1, "1 extra (e.g. ..)")],
    )
    text = Sweep("corgick", "sweep", "seeds", [failing]).format()
    assert "FAIL seed=41 profile=dense" in text
    assert "replay: python -m repro check corgick --seed 41 --profile dense" in text


def test_sweep_clean_range():
    result = sweep(9, base_seed=100)
    assert result.ok
    assert "9 seeds, 0 failing" in result.format()


class TestCli:
    def test_corgick_single_seed(self, capsys):
        assert main(["check", "corgick", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "corgick seed=5" in out
        assert "findings: 0" in out

    def test_corgick_sweep(self, capsys):
        assert main(["check", "corgick", "--sweep", "6"]) == 0
        assert "6 seeds, 0 failing" in capsys.readouterr().out

    def test_corgick_rejects_unknown_profile(self):
        with pytest.raises(SystemExit, match="unknown profile"):
            main(["check", "corgick", "--profile", "bogus"])
