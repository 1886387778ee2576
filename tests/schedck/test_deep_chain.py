"""Executable regression for the documented deep-chain divergence.

DESIGN.md ("Known divergences") records that deep-chain rules under
heavily out-of-order threaded execution suffer a *transient token
blow-up*: when the ``-`` half of an in-flight modify is delayed past
the ``+`` half, a join sees both the old and the new WME at once and
multiplies combinations at every chain level.  Before the schedule
harness this was prose; the pinned adversarial schedule below makes it
an executable, deterministic fact.

The test is ``xfail(strict=True)``: it MUST fail while the divergence
exists, and will flag (XPASS) the day an engine change fixes it.
See ISSUE 1 (deterministic schedule-exploration harness) for context.

Note what still holds even under this schedule — and is asserted by
the companion test: every *fixpoint* invariant (conflict-set equality,
empty extra-deletes lists, token-memory census).  The blow-up is
transient extra match work, not end-state corruption, which is exactly
the paper's §3.2 claim boundary.
"""

import pytest

from repro.schedck.runner import EngineConfig, run_schedule
from repro.schedck.workloads import deep_chain_case

#: The pinned schedule: delete halves of every modify delayed behind
#: the add halves, three workers racing on one queue.  The workload is
#: the registry's ``deep-chain`` fixture, so the failure replays as
#: ``python -m repro check schedck --workload deep-chain --workers 3
#: --policy adversarial:delay-deletes``.
PINNED_SEED = 0
PINNED_CONFIG = EngineConfig(n_workers=3, n_queues=1)
PINNED_POLICY = "adversarial:delay-deletes"


def run_pinned():
    program, batches = deep_chain_case()
    return run_schedule(
        PINNED_SEED,
        config=PINNED_CONFIG,
        policy_spec=PINNED_POLICY,
        program=program,
        batches=batches,
    )


@pytest.mark.xfail(
    strict=True,
    reason="deep-chain transient token blow-up under delayed deletes "
    "(DESIGN.md 'Known divergences'; ISSUE 1)",
)
def test_deep_chain_no_transient_blowup():
    """Transiently, the parallel engine must do no more match work than
    the sequential engine — it does, while this xfails."""
    report = run_pinned()
    stats = dict(report.stats)
    assert stats["tokens_emitted.par"] == stats["tokens_emitted.seq"]


def test_deep_chain_fixpoint_invariants_still_hold():
    """The blow-up is transient: at quiescence the conflict set, the
    extra-deletes lists and the token census all still match."""
    report = run_pinned()
    assert report.ok, report.format()
    assert not report.truncated


def test_blowup_is_deterministic():
    """The pinned schedule reproduces the same blow-up, byte for byte —
    this is what makes the divergence a regression test at all."""
    assert run_pinned().format() == run_pinned().format()
    stats = dict(run_pinned().stats)
    assert stats["tokens_emitted.par"] > stats["tokens_emitted.seq"]
