"""Shared fixtures for the benchmark suite.

Reports are printed (visible with ``-s``) and also written to
``benchmarks/reports/`` so a plain ``python -m pytest benchmarks/ -q``
run leaves the paper-vs-measured tables on disk.  (There is no
``--benchmark-only`` flag — that belongs to the pytest-benchmark
plugin, which this repo does not use.)  The deterministic counters are
gated exactly by ``repro bench run`` / ``compare`` and wall time is
measured by ``bench/run.py`` — see docs/PERF.md.
"""

from __future__ import annotations

import pathlib

import pytest

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


@pytest.fixture()
def emit(report_dir):
    """Print a report and persist it under ``benchmarks/reports/``.

    Writes are atomic (temp file + rename) so an interrupted run can't
    leave a truncated report behind.
    """

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        final = report_dir / f"{name}.txt"
        tmp = report_dir / f"{name}.txt.tmp"
        tmp.write_text(text + "\n", encoding="utf-8")
        tmp.replace(final)

    return _emit
