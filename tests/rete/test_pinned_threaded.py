"""The threaded engine's match work under the pinned schedules, pinned.

``test_pinned_match.py`` holds the sequential matcher to its counters;
under the cooperative scheduler the threaded engine is as deterministic,
so the two amplification regressions (``repro.schedck.workloads``) get
the same treatment: activations, tokens, the §3.2 extra-deletes traffic
and the schedule length, for conjugate-storm under every dispatch
policy and for deep-chain.  A change that lets a batch's adds race its
deletes again moves ``tokens_emitted.par`` here long before it is large
enough to trip the schedck amplification bound.

Regenerate (only when the engine's schedule changes on purpose)::

    PYTHONPATH=src:. python tests/rete/test_pinned_threaded.py > tests/rete/pinned_threaded.json
"""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.parallel.policy import POLICY_NAMES
from tests.schedck import test_conjugate_storm, test_deep_chain

PINNED = Path(__file__).with_name("pinned_threaded.json")

#: Case name -> the regression's own pinned run (2 workers / 2 queues
#: under ``burst:50``; 3 workers / 1 queue under delay-deletes).
CASES = {
    f"conjugate-storm@{dispatch}": partial(test_conjugate_storm.run_pinned, dispatch)
    for dispatch in POLICY_NAMES
}
CASES["deep-chain"] = test_deep_chain.run_pinned

COUNTERS = (
    "node_activations.par", "tokens_emitted.par",
    "conjugate.parked", "conjugate.annihilated",
)


def observe(case: str) -> dict:
    report = CASES[case]()
    assert report.ok, report.format()
    stats = dict(report.stats)
    pinned = {name: stats[name] for name in COUNTERS}
    # body[1] is "schedule: N decisions"
    pinned["decisions"] = int(report.body[1].split()[1])
    return pinned


@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_are_the_pinned_ones(case):
    assert observe(case) == json.loads(PINNED.read_text())[case]


if __name__ == "__main__":
    print(json.dumps({case: observe(case) for case in sorted(CASES)}, indent=1))
