"""Regression: conjugate-storm terminates under every dispatch policy.

The workload is rubik's match-phase shape distilled — a deep chain with
a width-2 cross product per level, modified in one conjugate-heavy
batch — under the ``burst:50`` timeslice schedule, whose long
per-thread runs let a split ``+``/``-`` pair stream furthest apart.
While a batch's adds and deletes raced, round-robin dispatch with one
queue per worker (2 workers, 2 queues) never reached quiescence here:
a delete half that lagged its insert half double-counted through every
join level and the regenerated work re-split the same way.  The engine
now retracts before it asserts, so every dispatch policy, at every
queue count, finishes well inside the old step budget with *less* match
work than sequential (whose order ``-old +new -old +new`` joins every
new WME against the not-yet-retracted old ones).

Replay (exit 0 for every ``--dispatch``)::

    python -m repro check schedck --workload conjugate-storm --policy burst:50 \
        --workers 2 --queues 2 --dispatch round-robin --max-steps 150000
"""

import pytest

from repro.parallel.policy import POLICY_NAMES
from repro.schedck.runner import EngineConfig, run_schedule

PINNED_SEED = 0
PINNED_SCHEDULE = "burst:50"
#: The budget the livelock used to exhaust; a run now takes ~23k steps.
MAX_STEPS = 150_000

#: Every policy at one queue per worker (the former livelock alignment),
#: plus the default dispatch on a shared queue and with a steal-only one.
CASES = [(dispatch, 2) for dispatch in POLICY_NAMES] + [
    ("round-robin", 1),
    ("round-robin", 3),
]


def run_pinned(dispatch, n_queues=2):
    return run_schedule(
        PINNED_SEED,
        config=EngineConfig(n_workers=2, n_queues=n_queues, dispatch=dispatch),
        policy_spec=PINNED_SCHEDULE,
        workload="conjugate-storm",
        max_steps=MAX_STEPS,
    )


@pytest.mark.parametrize("dispatch, n_queues", CASES)
def test_storm_completes_within_sequential_work(dispatch, n_queues):
    report = run_pinned(dispatch, n_queues)
    assert not report.truncated, report.format()
    assert report.ok, report.format()
    stats = dict(report.stats)
    assert stats["tokens_emitted.par"] <= stats["tokens_emitted.seq"]
    # Byte-identical on a second run: what makes it a regression test.
    assert run_pinned(dispatch, n_queues).format() == report.format()
