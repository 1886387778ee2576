"""Regression: conjugate-storm terminates at every queue count.

The workload is rubik's match-phase shape distilled — a deep chain with
a width-2 cross product per level, modified in one conjugate-heavy
batch — under a ``pct:3`` schedule, whose priority leader runs long
stretches alone and so lets a split ``+``/``-`` pair stream far apart.
While a batch's adds and deletes raced, one queue per worker (2
workers, 2 queues) never reached quiescence here: a delete half that
lagged its insert half double-counted through every join level and the
regenerated work re-split the same way (``test_plants.py`` plants that
engine back).  The engine now retracts before it asserts, so a shared
queue, one queue per worker and a queue no worker calls home all
finish well inside the old step budget with *less* match work than
sequential (whose order ``-old +new -old +new`` joins every new WME
against the not-yet-retracted old ones).

Replay (exit 0)::

    python -m repro check schedck --workload conjugate-storm --policy pct:3 \
        --workers 2 --queues 2 --max-steps 150000
"""

import pytest

from repro.schedck.runner import EngineConfig, run_schedule

PINNED_SEED = 0
PINNED_SCHEDULE = "pct:3"
#: The budget the livelock used to exhaust; a run now takes ~22k steps.
MAX_STEPS = 150_000


def run_pinned(n_queues=2):
    return run_schedule(
        PINNED_SEED,
        config=EngineConfig(n_workers=2, n_queues=n_queues),
        policy_spec=PINNED_SCHEDULE,
        workload="conjugate-storm",
        max_steps=MAX_STEPS,
    )


@pytest.mark.parametrize("n_queues", [1, 2, 3])
def test_storm_completes_within_sequential_work(n_queues):
    report = run_pinned(n_queues)
    assert not report.truncated, report.format()
    assert report.ok, report.format()
    stats = dict(report.stats)
    assert stats["tokens_emitted.par"] <= stats["tokens_emitted.seq"]
    # Byte-identical on a second run: what makes it a regression test.
    assert run_pinned(n_queues).format() == report.format()
