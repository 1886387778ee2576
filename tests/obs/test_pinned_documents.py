"""The hot-spot profile and the watchdog's stall, pinned whole.

``test_profile.py`` checks parts of the profile; this file holds the
three documents byte for byte, so a rewrite of how they are built must
print the same thing:

* ``render_text`` of the synthetic snapshot (with a network) at the
  default limit and at ``limit=1``;
* the profile's JSON document (the serve ``stats`` reply's ``obs``),
  and text and JSON of a snapshot that only dropped spans;
* the stall ``StallWatchdog.evaluate`` files from a fixed probe
  sequence, minus ``tripped_unix`` (the wall clock at the trip).

Regenerate (only when a document changes on purpose)::

    PYTHONPATH=src:. python tests/obs/test_pinned_documents.py > tests/obs/pinned_documents.json
"""

import json
from pathlib import Path

from repro.obs import flight, profile
from repro.obs.events import ObsSnapshot
from repro.obs.watchdog import StallWatchdog

from tests.obs.test_profile import FakeNetwork, synthetic_snapshot

PINNED = Path(__file__).with_name("pinned_documents.json")


def queues(*depths):
    return [{"name": name, "depth": depth} for name, depth in depths]


#: ``(clock, probe reading)``: progress at 0.25, then nothing done with
#: work pending until the trip at 1.5; queue[1] and taskcount tie for
#: deepest, and the first of them is the stuck queue.
PROBES = [
    (0.0, {"tasks_done": 3,
           "queues": queues(("queue[0]", 2), ("queue[1]", 0), ("taskcount", 2)),
           "lock_holders": {}, "extra": {"workers_alive": 2}}),
    (0.25, {"tasks_done": 5,
            "queues": queues(("queue[0]", 1), ("queue[1]", 4), ("taskcount", 5)),
            "lock_holders": {"queue[1]": "match-1"}, "extra": {"workers_alive": 2}}),
    (0.5, {"tasks_done": 5,
           "queues": queues(("queue[0]", 0), ("queue[1]", 5), ("taskcount", 5)),
           "lock_holders": {"queue[1]": "match-1"}, "extra": {"workers_alive": 2}}),
    (1.0, {"tasks_done": 5,
           "queues": queues(("queue[0]", 0), ("queue[1]", 6), ("taskcount", 6)),
           "lock_holders": {"queue[1]": "match-1", "line[7]": "match-0"},
           "extra": {"workers_alive": 2}}),
    (1.5, {"tasks_done": 5,
           "queues": queues(("queue[0]", 0), ("queue[1]", 6), ("taskcount", 6)),
           "lock_holders": {"queue[1]": "match-1", "line[7]": "match-0"},
           "extra": {"workers_alive": 1, "failures": 0}}),
]


def documents():
    prof = profile.build(synthetic_snapshot(), network=FakeNetwork())
    dropped = profile.build(ObsSnapshot(dropped=3))
    dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
    flight.reset()
    try:
        filed = [dog.evaluate(t, reading) for t, reading in PROBES]
    finally:
        flight.reset()
    *quiet, stall = filed
    assert quiet == [None] * len(quiet) and stall is not None
    stall = {k: v for k, v in stall.items() if k != "tripped_unix"}
    return {
        "text": profile.render_text(prof),
        "text_limit_1": profile.render_text(prof, limit=1),
        "json": prof,
        "dropped_text": profile.render_text(dropped),
        "dropped_json": dropped,
        "stall": stall,
    }


def test_documents_match_the_pins():
    """Compared as JSON text: key order is part of the document."""
    pinned = json.loads(PINNED.read_text())
    observed = documents()
    assert list(observed) == list(pinned)
    for name in pinned:
        assert json.dumps(observed[name]) == json.dumps(pinned[name]), name


if __name__ == "__main__":
    print(json.dumps(documents(), indent=1))
