"""The standing rule as a test: this tree's smoke counters are the
committed ``benchmarks/BENCH_smoke.json``, byte for byte.

If this fails after an intended behaviour change, regenerate the
baseline (``python -m repro bench run --out-dir
benchmarks``) and commit its diff with the change — that diff is the history (docs/PERF.md).
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.ops5.interpreter import Interpreter
from repro.perf.compare import compare_docs, load_doc
from repro.perf.runner import run_suite
from repro.perf.scenarios import Result, Scenario
from repro.programs import weaver

BASELINE = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "BENCH_smoke.json")

#: The 26 ``stable: true`` medians of the last ``repro.bench/1`` seed
#: (benchmarks/BENCH_seed-smoke.json at 086fc20).
SEED_V1 = {
    "corgi-adversarial": {
        "cross_corgi_tokens": 0.0, "cross_rete_tokens": 14795.0,
        "deep_corgi_tokens": 0.0, "deep_rete_tokens": 4368.0,
    },
    "match-weaver": {"activations": 20168.0, "wm_changes": 288.0},
    "policy-sweep": {
        "affinity_speedup_1p7_8q": 4.424373494015836,
        "affinity_steals": 8280.0,
        "least_loaded_speedup_1p7_8q": 5.004333694474539,
        "least_loaded_steals": 6666.0,
        "rebalance_speedup_1p7_8q": 4.570088978510269,
        "rebalance_spills": 2706.0,
        "rebalance_steals": 5768.0,
        "round_robin_speedup_1p7_8q": 4.543644674992256,
        "round_robin_steals": 5111.0,
        "work_stealing_speedup_1p7_8q": 5.152527260445817,
        "work_stealing_steals": 5055.0,
    },
    "serve-loadgen": {"errors": 0.0},
    "serve-meter": {"meter_errors": 0.0, "meter_txns": 18.0},
    "sim-weaver": {
        "line_spins_1p7_8q": 1.0729736449527598,
        "queue_spins_1p7_1q": 3.1749024995568162,
        "speedup_1p3_1q": 2.4829268564881293,
        "speedup_1p7_8q": 5.152527260445817,
        "speedup_mrsw_1p7_8q": 5.333114836590921,
        "uniproc_minstr": 1.334891,
    },
}

FABRIC_MP = {"ship_batches": 414.0, "shipped_spans": 414.0,
             "stitch_orphans": 0.0, "trace_problems": 0.0,
             "watchdog_trips": 0.0}


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """The smoke suite, run twice in-process; artifact paths."""
    return [
        run_suite(out_dir=str(tmp_path_factory.mktemp(d)))[1]
        for d in ("first", "second")
    ]


class TestCommittedBaseline:
    def test_reseed_moved_nothing(self):
        metrics = {sid: entry["metrics"]
                   for sid, entry in load_doc(str(BASELINE))["scenarios"].items()}
        assert sum(len(m) for m in SEED_V1.values()) == 26
        for sid, seed in SEED_V1.items():
            assert metrics[sid] == seed, sid
        assert metrics["fabric-mp"] == FABRIC_MP
        assert sum(len(m) for m in metrics.values()) == 31

    def test_tree_matches_committed_baseline(self, smoke_runs, capsys):
        assert main(["bench", "compare", "--baseline", str(BASELINE),
                     "--current", smoke_runs[0]]) == 0
        out = capsys.readouterr().out
        assert "changed=0 added=0 removed=0" in out
        result = compare_docs(load_doc(str(BASELINE)), load_doc(smoke_runs[0]))
        assert {d.classification for d in result.deltas} <= {"same", "skipped"}
        if not result.skipped:  # profile rows too, not only the metrics
            assert (pathlib.Path(smoke_runs[0]).read_bytes()
                    == BASELINE.read_bytes())

    def test_two_runs_write_identical_bytes(self, smoke_runs):
        first, second = (pathlib.Path(p).read_bytes() for p in smoke_runs)
        assert first == second


class TestGateExitCodes:
    """``bench compare`` against edited copies of the committed file."""

    @staticmethod
    def compare(tmp_path, capsys, edit):
        doc = json.loads(BASELINE.read_text(encoding="utf-8"))
        edit(doc["scenarios"])
        current = tmp_path / "BENCH_smoke.json"
        current.write_text(json.dumps(doc), encoding="utf-8")
        # (--baseline's default is this file too, but relative to the cwd)
        code = main(["bench", "compare", "--baseline", str(BASELINE),
                     "--out-dir", str(tmp_path)])
        return code, capsys.readouterr().out

    def test_changed_fails(self, tmp_path, capsys):
        def edit(scenarios):
            scenarios["policy-sweep"]["metrics"]["rebalance_spills"] += 1

        code, out = self.compare(tmp_path, capsys, edit)
        assert code == 1
        assert "policy-sweep.rebalance_spills" in out and "changed=1" in out
        assert "2706" in out and "2707" in out

    def test_added_fails(self, tmp_path, capsys):
        def edit(scenarios):
            scenarios["sim-weaver"]["metrics"]["speedup_1p13_8q"] = 9.0

        code, out = self.compare(tmp_path, capsys, edit)
        assert code == 1 and "added=1" in out

    def test_removed_fails(self, tmp_path, capsys):
        # A whole scenario leaving the gate is five failures, not silence.
        code, out = self.compare(tmp_path, capsys,
                                 lambda scenarios: scenarios.pop("fabric-mp"))
        assert code == 1 and "removed=5" in out
        assert "fabric-mp.ship_batches" in out

    def test_skipped_passes_and_says_why(self, tmp_path, capsys):
        def edit(scenarios):
            scenarios["fabric-mp"].update(metrics={}, skipped="no fork here")

        code, out = self.compare(tmp_path, capsys, edit)
        assert code == 0
        assert "skipped=5" in out and "same=26" in out
        assert "skipped 'fabric-mp': no fork here" in out


# -- planted regression ------------------------------------------------------

#: ``accept-c0-b5``'s three condition elements after ``cand``, as
#: weaver writes them and reversed: the candidate now joins the (always
#: matching) router and net before the cell that filters it.
VICTIM = "accept-c0-b5"
AS_WRITTEN = """\
  (cell ^x <x> ^y <y> ^blocked no)
  (net ^id <n> ^class c0 ^state routing)
  (router ^current <n> ^state expand)
"""
REORDERED = """\
  (router ^current <n> ^state expand)
  (net ^id <n> ^class c0 ^state routing)
  (cell ^x <x> ^y <y> ^blocked no)
"""


def weaver_scenario(source):
    def run():
        interp = Interpreter(source)
        firings = interp.run(max_cycles=50000).cycles
        return Result(
            metrics={"activations": float(interp.stats.node_activations),
                     "firings": float(firings)},
            network=interp.network,
        )

    return {"weaver": Scenario(
        scenario_id="weaver", title="planted",
        metrics=("activations", "firings"), run=run, profiled=True,
    )}


def test_planted_regression_named_from_artifacts_alone(tmp_path, capsys):
    source = weaver.source(grid=5, n_nets=1)
    head, rule = source.split(f"(p {VICTIM}\n", 1)
    assert AS_WRITTEN in rule.split("-->", 1)[0]
    planted = head + f"(p {VICTIM}\n" + rule.replace(AS_WRITTEN, REORDERED, 1)

    _, base = run_suite(out_dir=str(tmp_path / "base"),
                        registry=weaver_scenario(source))
    _, cur = run_suite(out_dir=str(tmp_path / "cur"),
                       registry=weaver_scenario(planted))
    # From here on only the two files are consulted.
    assert main(["bench", "compare", "--baseline", base, "--current", cur]) == 1
    out = capsys.readouterr().out
    assert "weaver.activations" in out and "changed=1" in out
    assert "same=1" in out  # same firings: the program's meaning is intact

    result = compare_docs(load_doc(base), load_doc(cur))
    first = result.movers["weaver"][0]
    assert first.label == VICTIM
    assert first.deltas[0] > 0
    assert first.nodes and first.nodes[0].label.endswith(" join")
    assert first.nodes[0].deltas[0] != 0
    assert f"    {VICTIM} " in out and first.nodes[0].label in out
