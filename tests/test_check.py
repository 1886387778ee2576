"""The differential proof harness (``repro.check``) itself: registry,
report formats, the lockstep driver's contract, and the replay-line
property across all three batteries."""

from __future__ import annotations

import shlex
from types import SimpleNamespace

import pytest

from repro import check, cli
from repro.check import Finding, Report, Sweep, Workload
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.matcher import SequentialMatcher

JOIN = "(p r (a ^x <v>) (b ^x <v>) --> (halt))"


def join_workload(n_batches: int = 3) -> Workload:
    """Batch ``i`` adds the pair ``a``/``b`` with ``x = i`` — one new
    instantiation of ``r`` per batch."""
    wm = WorkingMemory()
    batches = [
        [WMEChange(1, wm.add("a", {"x": i})), WMEChange(1, wm.add("b", {"x": i}))]
        for i in range(n_batches)
    ]
    return Workload(JOIN, batches)


class TamperedSubject:
    """A sequential matcher whose deltas pass through ``tamper(batch
    index, deltas)`` — the stand-in for a buggy engine."""

    def __init__(self, load: Workload, tamper) -> None:
        self.inner = SequentialMatcher(load.compile())
        self.tamper = tamper
        self.batches_seen = 0

    def process_changes(self, batch):
        deltas = self.tamper(self.batches_seen, list(self.inner.process_changes(batch)))
        self.batches_seen += 1
        return deltas


def no_invariants(_bi, _batch, _oracle):
    return []


def spurious_minus(bi, deltas):
    """One ``-`` delta for an instantiation that was never there."""
    if bi == 1:
        ghost = (SimpleNamespace(name="r"), ((), (98, 99)), -1)
        deltas.append(ghost)
    return deltas


def doubled_plus(bi, deltas):
    return deltas + deltas if bi == 1 else deltas


class TestRegistry:
    def test_help_lists_exactly_the_registered_batteries(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"one of: {', '.join(check.BATTERIES)}" in out

    @pytest.mark.parametrize("name", sorted(check.BATTERIES))
    def test_every_entry_registers_under_its_own_name(self, name, capsys):
        assert cli.load(check.BATTERIES, name).name == name
        with pytest.raises(SystemExit):
            cli.main(["check", name, "--help"])
        assert f"usage: repro check {name}" in capsys.readouterr().out

    def test_old_top_level_verbs_are_gone(self, capsys):
        for verb in check.BATTERIES:
            with pytest.raises(SystemExit) as exc:
                cli.main([verb])
            assert exc.value.code == 2
        capsys.readouterr()


class TestFormats:
    def report(self, seed: int, findings=()) -> Report:
        return Report(
            battery="demock",
            label=[("seed", seed), ("mode", "x")],
            args={"seed": seed, "mode": "x", "max_steps": 9, "workload": None},
            findings=list(findings),
            body=["program: 1 rules, 2 WM changes in 1 batches"],
            stats=[("tokens.seq", 3)],
        )

    def test_passing_report(self):
        assert self.report(7).format() == (
            "demock seed=7 mode=x\n"
            "program: 1 rules, 2 WM changes in 1 batches\n"
            "  tokens.seq = 3\n"
            "findings: 0"
        )

    def test_failing_report_ends_with_its_replay_line(self):
        findings = [Finding("conflict_set", 2, "1 extra"), Finding("trace", None, "differs")]
        assert self.report(7, findings).format() == (
            "demock seed=7 mode=x\n"
            "program: 1 rules, 2 WM changes in 1 batches\n"
            "  tokens.seq = 3\n"
            "findings: 2\n"
            "  [conflict_set] batch 2: 1 extra\n"
            "  [trace] differs\n"
            "replay: python -m repro check demock --seed 7 --mode x --max-steps 9"
        )

    def test_truncated_report_fails_without_findings(self):
        report = self.report(7)
        report.truncated = True
        assert not report.ok
        assert report.format().endswith("findings: 0\nreplay: python -m repro check demock"
                                        " --seed 7 --mode x --max-steps 9")

    def test_sweep_lists_failures_after_its_counts(self):
        bad = Finding("conflict_set", 0, "1 missing")
        sweep = Sweep(
            "demock", "sweep", "seeds",
            [self.report(1), self.report(2, [bad])],
            also=[(1, "truncated")],
        )
        assert not sweep.ok
        assert sweep.format() == (
            "demock sweep: 2 seeds, 1 failing, 1 truncated\n"
            "  FAIL seed=2 mode=x — [conflict_set] batch 0: 1 missing\n"
            "    replay: python -m repro check demock --seed 2 --mode x --max-steps 9"
        )

    def test_sweep_caps_the_failure_listing(self):
        bad = Finding("conflict_set", 0, "1 missing")
        sweep = Sweep("demock", "sweep", "seeds",
                      [self.report(i, [bad]) for i in range(check.MAX_LISTED + 3)])
        lines = sweep.format().splitlines()
        assert lines[0] == "demock sweep: 23 seeds, 23 failing"
        assert lines[-1] == "  ... and 3 more"
        assert len(lines) == 1 + 2 * check.MAX_LISTED + 1


class TestLockstep:
    def test_agreeing_subject_has_no_findings(self):
        load = join_workload()
        subject = TamperedSubject(load, lambda bi, deltas: deltas)
        findings, oracle = check.lockstep(load, subject, no_invariants)
        assert findings == []
        assert subject.batches_seen == 3
        assert oracle.stats.tokens_emitted == subject.inner.stats.tokens_emitted

    def test_stops_at_the_first_failing_batch(self):
        load = join_workload()
        subject = TamperedSubject(load, doubled_plus)
        checked = []

        def invariants(bi, _batch, _oracle):
            checked.append(bi)
            return [Finding("probe", bi, "also ran")] if bi == 1 else []

        findings, _oracle = check.lockstep(load, subject, invariants)
        assert subject.batches_seen == 2          # batch 2 never driven
        assert checked == [0, 1]
        assert [f.kind for f in findings] == ["conflict_set", "probe"]
        assert {f.batch for f in findings} == {1}

    def test_engine_error_becomes_a_finding(self):
        def explode(bi, deltas):
            if bi == 1:
                raise RuntimeError("worker died") from KeyError("line 7")
            return deltas

        load = join_workload()
        findings, _oracle = check.lockstep(
            load, TamperedSubject(load, explode), no_invariants
        )
        assert [f.format() for f in findings] == [
            "[engine_error] batch 1: worker died: KeyError('line 7')"
        ]

    @pytest.mark.parametrize("tamper, needle", [
        (spurious_minus, "1 extra (e.g. ('r', (98, 99)))"),
        (doubled_plus, "instantiation multiplicities differ"),
    ])
    def test_multiplicity_faults_are_conflict_set_findings(self, tamper, needle):
        """The corgick blind spot: ``+a != +b`` drops non-positive
        counts, so a spurious ``-`` compared equal and a doubled ``+``
        reported ``extra=[] missing=[]``."""
        load = join_workload()
        findings, _oracle = check.lockstep(
            load, TamperedSubject(load, tamper), no_invariants
        )
        assert [(f.kind, f.batch) for f in findings] == [("conflict_set", 1)]
        assert needle in findings[0].detail

    def test_pinned_program_needs_batches(self):
        from repro.schedck.progen import ProgenParams

        with pytest.raises(ValueError, match="pinned batches"):
            check.workload(0, ProgenParams(), program=JOIN)


# ---------------------------------------------------------------------------
# Replay lines: whatever a failing Report or Sweep prints after
# "replay:" is a complete command that reproduces that exact report.


def assert_replays(result, capsys) -> int:
    """Re-run every failing case of ``result`` from its printed replay
    line, expecting that case's report; returns how many were replayed."""
    failing = result.failures if isinstance(result, Sweep) else [result]
    assert failing and not result.ok
    printed = result.format()
    for report in failing:
        (line,) = report.replay()
        assert line in printed
        prefix = "replay: python -m repro "
        assert line.startswith(prefix)
        argv = shlex.split(line[len(prefix):])
        verb, prog, _flags = cli.parse(cli.VERBS, "repro", argv)
        assert verb is cli.load(check.BATTERIES, report.battery)
        assert prog == f"repro check {report.battery}"
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == report.format() + "\n"
    return len(failing)


class TestReplayLines:
    def test_schedck_report_and_sweep(self, capsys):
        from repro.schedck.runner import EngineConfig, run_schedule, sweep

        config = EngineConfig(n_workers=2, n_queues=3, lock_scheme="mrsw")
        report = run_schedule(42, config=config, policy_spec="pct", max_steps=50)
        assert report.truncated
        assert assert_replays(report, capsys) == 1
        assert assert_replays(sweep(3, base_seed=1, max_steps=50), capsys) == 3

    def test_schedck_pinned_workload_replays_by_name(self, capsys):
        from repro.schedck.runner import run_schedule

        report = run_schedule(0, workload="deep-chain", max_steps=50)
        assert "--workload deep-chain" in report.replay()[0]
        assert assert_replays(report, capsys) == 1

    def test_corgick_planted_spurious_minus(self, capsys, monkeypatch):
        from repro.corgi import diffcheck
        from repro.corgi.engine import CorgiMatcher

        real = CorgiMatcher.process_changes

        def buggy(self, batch):
            return spurious_minus(1, list(real(self, batch)))

        monkeypatch.setattr(CorgiMatcher, "process_changes", buggy)
        result = diffcheck.sweep(4, base_seed=10, profile="dense")
        assert {r.findings[0].kind for r in result.reports} == {"conflict_set"}
        assert assert_replays(result, capsys) == 4
        assert assert_replays(diffcheck.run_seed(5), capsys) == 1
