"""Self-tests of the benchmark: ``python -m pytest bench/tests -q``.

They drive the ``--quick`` size table through the real runner (child
processes and all), so they need a few seconds each; tier-1's
``testpaths`` does not collect them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER = ("match.process_changes_s", "ops5.conflict.select_s",
          "ops5.conflict.apply_s", "ops5.rhs.act_s",
          "ops5.interpreter.unaccounted_s")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden")
    done = bench("--quick", "--write-golden", "--golden-dir", str(path))
    assert done.returncode == 0, done.stderr
    return path


@pytest.fixture(scope="module")
def report(golden_dir, tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("out") / "quick.json"
    done = bench("--quick", "--reps", "1", "--seconds", "0.2",
                 "--golden-dir", str(golden_dir), "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert out.with_suffix(".spans.json").exists()
    return json.loads(out.read_text())


def test_declared_names_are_well_formed_and_unique():
    names = [d["name"] for key in ("workloads", "end_to_end", "per_layer")
             for d in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {d["name"] for d in SPEC["end_to_end"]}


def test_quick_suite_reports_exactly_what_is_declared(report):
    assert list(report["workloads"]) == [d["name"] for d in SPEC["workloads"]]
    assert tuple(report["workloads"]) == workloads.NAMES
    for name, entry in report["workloads"].items():
        assert entry["failed_share"] == 0, (name, entry["failures"])
        assert set(entry["end_to_end"]) == {d["name"] for d in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {d["name"] for d in SPEC["per_layer"]}
        assert all(s["median"] > 0 for s in entry["end_to_end"].values()), name
    for key in ("nproc", "python", "platform", "git_sha", "seed", "reps"):
        assert key in report["host"]


def test_ledger_closes_on_program_workloads(report):
    for name in workloads.PROGRAMS:
        layer = {n: m["value"] for n, m in report["workloads"][name]["per_layer"].items()}
        assert sum(layer[n] for n in LEDGER) == pytest.approx(
            layer["bench.traced_run_s"], rel=1e-9), name


def test_same_seed_same_input_and_the_seed_reaches_rubik_and_serve():
    for name in workloads.NAMES:
        assert (workloads.input_text(name, 7, quick=True)
                == workloads.input_text(name, 7, quick=True))
        differs = (workloads.input_text(name, 7, quick=True)
                   != workloads.input_text(name, 8, quick=True))
        assert differs == (name in ("rubik-match", "serve-churn")), name


def test_planted_golden_mismatch_fails_the_whole_workload(golden_dir, tmp_path):
    planted = tmp_path / "golden"
    planted.mkdir()
    doc = json.loads((golden_dir / "tourney-cross.json").read_text())
    doc["expected"]["firing_sha256"] = "0" * 64
    (planted / "tourney-cross.json").write_text(json.dumps(doc))
    out = tmp_path / "planted.json"
    done = bench("--quick", "--workload", "tourney-cross", "--reps", "1",
                 "--seconds", "0.2", "--no-trace", "--golden-dir", str(planted),
                 "--out", str(out))
    assert done.returncode != 0
    assert json.loads(out.read_text())["workloads"]["tourney-cross"]["failed_share"] == 1.0


def test_refuses_to_time_with_the_bus_or_the_meter_on():
    from repro.obs import events, meter
    run.refuse_if_instrumented()
    for switch in (events, meter):
        switch.enable()
        try:
            with pytest.raises(SystemExit):
                run.refuse_if_instrumented()
        finally:
            switch.disable()


def test_compare_flags_a_regression_and_passes_a_rerun(report):
    assert not [r for r in compare.compare(report, report, SPEC)
                if r["verdict"] in ("worse", "unresolved")]
    assert compare.exact_differences(report, report) == []
    slower = json.loads(json.dumps(report))
    stat = slower["workloads"]["rubik-match"]["end_to_end"]["run_s"]
    for key in ("median", "min", "max"):
        stat[key] *= 1.5
    stat["samples"] = [s * 1.5 for s in stat["samples"]]
    worse = [r for r in compare.compare(report, slower, SPEC) if r["verdict"] == "worse"]
    assert [(r["workload"], r["metric"]) for r in worse] == [("rubik-match", "run_s")]
