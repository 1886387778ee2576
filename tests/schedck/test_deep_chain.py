"""Regression: the deep-chain modify batch does no transient blow-up.

While a batch's adds and deletes raced, a schedule that ran the ``-``
half of an in-flight modify after its ``+`` half made each join of a
4-level chain see the old and the new WME at once and multiply
combinations per level (25 tokens against the sequential 15 under the
pinned schedule below, ``test_plants.py`` plants that engine back).
The engine now retracts before it asserts: 9 tokens.

Every *fixpoint* invariant (conflict-set equality, empty extra-deletes
lists, token-memory census) held before and holds now; the companion
test keeps asserting them.
"""

from repro.schedck.runner import EngineConfig, run_schedule

#: The pinned schedule: three workers racing on one queue, under a
#: random schedule that catches the racing engine.  A failure replays
#: as ``python -m repro check schedck --workload deep-chain --workers 3
#: --seed 1``.
PINNED_SEED = 1
PINNED_CONFIG = EngineConfig(n_workers=3, n_queues=1)
PINNED_POLICY = "random"


def run_pinned():
    return run_schedule(
        PINNED_SEED,
        config=PINNED_CONFIG,
        policy_spec=PINNED_POLICY,
        workload="deep-chain",
    )


def test_deep_chain_no_transient_blowup():
    """Transiently, the parallel engine does no more match work than
    the sequential engine."""
    report = run_pinned()
    stats = dict(report.stats)
    assert stats["tokens_emitted.par"] <= stats["tokens_emitted.seq"]


def test_deep_chain_fixpoint_invariants_still_hold():
    """At quiescence the conflict set, the extra-deletes lists and the
    token census all match."""
    report = run_pinned()
    assert report.ok, report.format()
    assert not report.truncated


def test_blowup_is_deterministic():
    """The pinned schedule replays byte for byte — what makes it a
    regression test at all."""
    assert run_pinned().format() == run_pinned().format()
