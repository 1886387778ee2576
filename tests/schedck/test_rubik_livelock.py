"""Deterministic reproduction of the multi-queue rubik livelock.

The cross-engine conformance suite originally pinned the threaded
engine to ``n_queues=1`` because rubik under multiple task queues
stopped terminating: with LIFO queues and ``n_queues == n_workers``
(every worker a dedicated home queue), the ``+``/``-`` halves of each
conjugate pair land on different queues, a delayed delete half
double-counts through every join level it lags, and the regenerated
work re-splits the same way — amplification sustained at or above the
annihilation rate.  That was a wall-clock observation (a hung pytest
run); this file makes it an executable, deterministic fact, the way
``test_deep_chain.py`` pinned the thread-schedule blow-up.

Three ingredients, all pinned:

* the ``conjugate-storm`` workload — rubik's match-phase shape
  distilled: a deep chain with a width-2 cross product per level,
  modified in one conjugate-heavy batch;
* the ``burst:50`` schedule — timeslice emulation; long per-thread
  runs are what sustain the amplification (uniform-random
  interleaving annihilates pairs too quickly to diverge);
* the livelock alignment ``n_workers=2, n_queues=2``.

Under round-robin dispatch the run never reaches quiescence inside a
step budget more than double what the fixed twin needs; under
``rebalance`` dispatch — same seed, same schedule, same workload, one
knob changed — it completes with *less* match work than sequential.
Round-robin off the alignment (1 or 3 queues) also completes, so the
queue/worker alignment, not round-robin itself, is the trigger.

Replay (first command exits 1 — truncated; second exits 0):

    python -m repro check schedck --workload conjugate-storm --policy burst:50 \
        --workers 2 --queues 2 --dispatch round-robin --max-steps 150000
    python -m repro check schedck --workload conjugate-storm --policy burst:50 \
        --workers 2 --queues 2 --dispatch rebalance --max-steps 150000
"""

import pytest

from repro.schedck.runner import EngineConfig, run_schedule
from repro.schedck.workloads import conjugate_storm_case

PINNED_SEED = 0
PINNED_SCHEDULE = "burst:50"
#: Step budget: the rebalance twin finishes in ~72k steps; round-robin
#: at the alignment is still amplifying past 230k.
MAX_STEPS = 150_000

NAIVE = EngineConfig(n_workers=2, n_queues=2, dispatch="round-robin")
FIXED = EngineConfig(n_workers=2, n_queues=2, dispatch="rebalance")


def run_pinned(config):
    program, batches = conjugate_storm_case()
    return run_schedule(
        PINNED_SEED,
        config=config,
        policy_spec=PINNED_SCHEDULE,
        program=program,
        batches=batches,
        max_steps=MAX_STEPS,
    )


def test_naive_dispatch_livelocks_at_the_alignment():
    """Round-robin at ``n_queues == n_workers`` exhausts a step budget
    the fixed twin finishes half of, with the match work more than
    doubled — liveness failure, not corruption: once the scheduler
    gives up and lets the run free-run to quiescence, every fixpoint
    invariant still holds (the paper's §3.2 claim boundary)."""
    report = run_pinned(NAIVE)
    assert report.truncated, report.format()
    assert not report.findings, report.format()
    stats = dict(report.stats)
    assert stats["tokens_emitted.par"] > 2 * stats["tokens_emitted.seq"]


def test_rebalance_dispatch_fixes_the_livelock():
    """Same seed, same schedule, same workload, same alignment — only
    the dispatch policy differs — and the run completes well inside
    the budget with less match work than sequential, because spilling
    hot queues keeps conjugate twins from streaming apart."""
    report = run_pinned(FIXED)
    assert not report.truncated, report.format()
    assert report.ok, report.format()
    stats = dict(report.stats)
    assert stats["tokens_emitted.par"] < 2 * stats["tokens_emitted.seq"]
    # The fix was active, not incidental: the policy actually spilled.
    assert dict(report.telemetry)["policy.rebalances"] > 0


@pytest.mark.parametrize("n_queues", [1, 3])
def test_alignment_not_round_robin_is_the_trigger(n_queues):
    """The same naive dispatch completes when queues and workers are
    NOT aligned: a single shared queue keeps twins in one LIFO stream,
    and a spare queue (``n_queues > n_workers``) is serviced only by
    steals, which re-mix the streams."""
    config = EngineConfig(n_workers=2, n_queues=n_queues, dispatch="round-robin")
    report = run_pinned(config)
    assert not report.truncated, report.format()
    assert report.ok, report.format()


def test_livelock_is_deterministic():
    """Both halves of the reproduction are byte-identical run to run —
    what makes a livelock a regression test at all."""
    assert run_pinned(NAIVE).format() == run_pinned(NAIVE).format()
    assert run_pinned(FIXED).format() == run_pinned(FIXED).format()
