"""The two samplers still catch every hazard of §3.2's design.

One test per hazard plants its defect back (``plants.py``) and holds a
pinned random or PCT case to two facts: the case is clean on the
engine as it is, and it fails with the plant.
"""

import threading

from repro.schedck.runner import EngineConfig, run_schedule

from . import plants, test_conjugate_storm, test_deep_chain


def kinds(report):
    return [finding.kind for finding in report.findings]


def test_deep_chain_pin_catches_assert_before_retract(monkeypatch):
    clean = dict(test_deep_chain.run_pinned().stats)
    assert clean["tokens_emitted.par"] <= clean["tokens_emitted.seq"]
    monkeypatch.setattr(*plants.ASSERT_BEFORE_RETRACT)
    planted = dict(test_deep_chain.run_pinned().stats)
    assert planted["tokens_emitted.par"] > planted["tokens_emitted.seq"]


def test_storm_pin_catches_assert_before_retract(monkeypatch):
    """One queue per worker, the alignment that livelocked."""
    assert test_conjugate_storm.run_pinned(n_queues=2).ok
    monkeypatch.setattr(*plants.ASSERT_BEFORE_RETRACT)
    report = test_conjugate_storm.run_pinned(n_queues=2)
    assert "amplification" in kinds(report), report.format()


def test_random_catches_taskcount_left_before_children_counted(monkeypatch):
    """Random's hazard: over the first 30 sweep cases with this plant,
    random caught 17 and PCT none."""
    assert run_schedule(2).ok
    monkeypatch.setattr(*plants.TASKCOUNT_EARLY)
    report = run_schedule(2)
    assert kinds(report)[:1] == ["conflict_set"], report.format()


def test_pct_catches_a_plus_that_passes_its_parked_minus(monkeypatch):
    assert run_schedule(4, policy_spec="pct").ok
    monkeypatch.setattr(*plants.NO_ANNIHILATION)
    report = run_schedule(4, policy_spec="pct")
    assert "conjugate deletes left parked" in report.failure(), report.format()


def test_a_stranded_task_ends_the_run_at_its_budget(monkeypatch):
    """Four queues, two workers: without the peer scan, roots dealt to
    queues 2 and 3 wait forever.  The run must still come back, as a
    truncated failure, not poll TaskCount until the job is killed."""
    config = EngineConfig(n_workers=2, n_queues=4)
    assert run_schedule(1, config, max_steps=5000).ok
    monkeypatch.setattr(*plants.NO_PEER_SCAN)
    out = []
    runner = threading.Thread(
        target=lambda: out.append(run_schedule(1, config, max_steps=5000)),
        daemon=True,
    )
    runner.start()
    runner.join(timeout=30)
    assert out, "a stranded schedule did not end"
    report = out[0]
    assert report.truncated and not report.ok
    assert "decision budget of 5000 spent" in report.failure()
