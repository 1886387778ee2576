"""Tests for the ``simulate`` verb's speed-up ladder over a recorded trace."""

import pytest

from repro.cli import main
from repro.simulator import report
from tests.conftest import FIND_COLORED_BLOCK


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "find.ops5"
    path.write_text(FIND_COLORED_BLOCK, encoding="utf-8")
    return str(path)


def ladder(program_file, capsys, monkeypatch, *flags):
    """``(speed-ups by config, the baseline results)`` of one verb run."""
    baselines = []
    replay = report.uniprocessor_baseline

    def spy(*args, **kwargs):
        baselines.append(replay(*args, **kwargs))
        return baselines[-1]

    monkeypatch.setattr(report, "uniprocessor_baseline", spy)
    assert main(["simulate", program_file, *flags]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("1+")]
    return {config: float(speedup) for config, speedup, _spins in rows}, baselines


class TestSimulateVerb:
    def test_curve_shape(self, program_file, capsys, monkeypatch):
        speedups, baselines = ladder(program_file, capsys, monkeypatch,
                                     "--processes", "1", "3", "5", "--queues", "1")
        assert list(speedups) == ["1+1/1q", "1+3/1q", "1+5/1q"]
        assert speedups["1+1/1q"] == pytest.approx(1.0, abs=0.15)
        assert max(speedups.values()) >= speedups["1+1/1q"]
        assert [b.match_seconds > 0 for b in baselines] == [True]

    def test_lock_scheme_passthrough(self, program_file, capsys, monkeypatch):
        speedups, baselines = ladder(program_file, capsys, monkeypatch,
                                     "--processes", "1", "--queues", "1", "--locks", "mrsw")
        assert list(speedups) == ["1+1/1q"]
        assert [b.options.lock_scheme for b in baselines] == ["mrsw"]
