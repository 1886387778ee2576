"""mp against the sequential oracle on generated programs.

Each case drives a :class:`ProcessMatcher` and a fresh sequential
matcher through the same batches of a program drawn by corgick's
generator (``check.lockstep``), one profile and one matcher count per
test, and must end without a finding: every batch's conflict set is
the oracle's.
"""

from __future__ import annotations

import pytest

from repro import check
from repro.corgi import diffcheck
from repro.parallel.mp import ProcessMatcher, mp_supported

pytestmark = pytest.mark.skipif(
    not mp_supported(), reason="mp engine needs the 'fork' start method"
)

#: Seeds per (profile, matcher count).
SEEDS = 30


def no_invariants(_bi, _batch, _oracle):
    return []


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("profile", sorted(diffcheck.PROFILES))
def test_mp_agrees_with_the_oracle_on_generated_programs(profile, n_workers):
    failing = []
    for seed in range(SEEDS):
        load = check.workload(seed, diffcheck.PROFILES[profile])
        matcher = ProcessMatcher(load.compile(), n_workers=n_workers)
        try:
            findings, _oracle = check.lockstep(load, matcher, no_invariants)
        finally:
            matcher.close()
        if findings:
            failing.append((seed, [f.format() for f in findings]))
    assert failing == []
