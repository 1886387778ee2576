"""What a set of observations renders to, pinned before the fabric's
collector, second renderer and second codec were deleted.

Two synthetic inputs with fixed timestamps:

* **plain** — a snapshot of two threads (spans with and without args,
  one ``phase`` span): the ``chrome_trace`` document, byte for byte;
* **stitched** — what a control process recorded on its own bus plus
  four ships from two worker processes (batch spans carrying ``seq``,
  one orphan ``seq``, a ``serve`` span and two ``phase/match`` spans
  sharing a ``req``, node aggregates on both workers, drops on one):
  the multi-process trace and the profile of the merged observations.

The inputs and ``pinned_traces.json`` were written at ``30446fd``, where
the stitched pair came from ``fabric.stitch_trace(snap, collector)`` and
``profile.build(fabric.merged_snapshot(snap, collector))``; only the
*entry points* below were edited when those went.  Flow ids are an
artifact of the renderer, so a trace is compared as its other events
plus its arrows (name, source end, target end), both sorted — which
also requires every flow id to belong to exactly one ``s`` and one
``f`` event.

Regenerate (only when the trace format changes on purpose)::

    PYTHONPATH=src:. python tests/obs/test_one_bus.py > tests/obs/pinned_traces.json
"""

import json
from pathlib import Path

from repro.obs import events, fabric, flight, profile
from repro.obs.events import ObsSnapshot
from repro.obs.export import chrome_trace, validate_chrome_trace

PINNED = Path(__file__).with_name("pinned_traces.json")

# -- entry points ------------------------------------------------------------


def render_plain(snap):
    return chrome_trace(snap)


def render_stitched():
    """``(trace document, profile JSON)`` of CONTROL + SHIPS."""
    events.reset()
    events.enable()
    try:
        record_control()
        for wid, ship in SHIPS:
            fabric.file_ship(f"match-{wid}", ship)
        snap = events.snapshot()
    finally:
        events.disable()
        events.reset()
        flight.reset()  # file_ship kept the ships' tails
    return chrome_trace(snap), profile.to_json(profile.build(snap))


# -- inputs ------------------------------------------------------------------

PLAIN = ObsSnapshot(
    workers={
        "MainThread": [
            (1_000, 9_000, "phase", "match", {"cycle": 1, "changes": 2}),
            (1_200, 300, "match", "wm_change", {"sign": "+", "alpha_hits": 1}),
            (10_500, 250, "phase", "match.quiesce_wait", None),
        ],
        "match-0": [
            (1_300, 40, "task", "join", {"node": 7}),
            (1_350, 15, "task", "requeue", None),
        ],
    },
    nodes={7: ["join", 1, 40, 2, 1]},
    counters={"queue.push": 2},
    dropped=3,
)

R1 = {"req": "r1", "session": "s1", "tenant": "default"}

#: ``events.span(cat, name, t0, t1, args)`` calls made on the control
#: process's main thread, in this order.
CONTROL_SPANS = [
    ("serve", "transact", 1_000, 30_000, {**R1, "outcome": "ok"}),
    ("phase", "match", 2_000, 9_000, {"cycle": 1, "changes": 2, **R1}),
    ("mp", "dispatch", 2_100, 2_400, {"changes": 2, "seq": 1, **R1}),
    ("mp", "quiesce_wait", 2_400, 7_000, None),
    ("mp", "merge", 7_000, 8_500, {"deltas": 3}),
    ("phase", "select", 9_100, 9_300, {"cycle": 1, **R1}),
    ("phase", "act", 9_300, 9_900, {"cycle": 1, "production": "p", **R1}),
    # The second match phase of the same request: its own arrow.
    ("phase", "match", 10_000, 19_000, {"cycle": 2, "changes": 1, **R1}),
    ("mp", "dispatch", 10_100, 10_300, {"changes": 1, "seq": 2, **R1}),
    # A request nobody served here (a bare SessionCore): no arrow, and
    # not an orphan either.
    ("phase", "match", 40_000, 41_000, {"cycle": 3, "changes": 1, "req": "r9"}),
]


def record_control():
    for cat, name, t0, t1, args in CONTROL_SPANS:
        events.span(cat, name, t0, t1, args)
    events.node_hit(7, "join", 11, 1, 0)
    events.lock_hit("queue", 10, 20, True)
    events.count("mp.batches", 2)


def batch(seq, wid, t0, dur, **ids):
    return (t0, dur, "mp.worker", "batch",
            {"seq": seq, "wid": wid, "changes": 2, **ids})


def flight_event(t_ns, event, detail):
    return {"t_ns": t_ns, "engine": "mp.worker", "event": event, "detail": detail}


#: ``(wid, ship)`` in the order the flush replies arrived.
SHIPS = [
    (0, {
        "pid": 4242,
        "spans": [batch(1, 0, 2_500, 1_500, **R1),
                  (2_600, 90, "task", "join", {"node": 7})],
        "nodes": {7: ["join", 2, 100, 4, 1], 9: ["not", 1, 5, 0, 0]},
        "counters": {"queue.push": 3},
        "dropped": 0, "ship_dropped": 0,
        "flight": [flight_event(2_500, "batch", {"wid": 0, "seq": 1})],
    }),
    (1, {
        "pid": 4243,
        "spans": [batch(1, 1, 2_550, 4_000, **R1)],
        "nodes": {7: ["join", 1, 30, 2, 0], 11: ["term", 1, 8, 0, 1]},
        "counters": {"queue.push": 1, "queue.pop": 1},
        "dropped": 2, "ship_dropped": 1,
        "flight": [flight_event(2_550, "batch", {"wid": 1, "seq": 1})],
    }),
    (0, {
        "pid": 4242,
        "spans": [batch(2, 0, 10_400, 700, **R1),
                  # A batch whose dispatch span the control bus never
                  # recorded: counted as an orphan, not linked.
                  batch(99, 0, 50_000, 100)],
        "nodes": {7: ["join", 3, 50, 2, 0]},
        "counters": {"queue.push": 2},
        "dropped": 0, "ship_dropped": 0,
        "flight": [],
    }),
    (1, {
        "pid": 4243,
        "spans": [batch(2, 1, 10_450, 600, **R1)],
        "nodes": {},
        "counters": {},
        "dropped": 0, "ship_dropped": 0,
        "flight": [flight_event(10_450, "batch", {"wid": 1, "seq": 2})],
    }),
]

# -- comparison --------------------------------------------------------------


def canonical(doc):
    """The document with its flow events replaced by sorted arrows."""
    ends = {}
    others = []
    for event in doc["traceEvents"]:
        if event["ph"] in ("s", "f"):
            end = ends.setdefault(event["id"], {})
            assert event["ph"] not in end, f"flow id {event['id']} reused"
            end[event["ph"]] = event
        else:
            others.append(event)
    arrows = []
    for flow_id, end in ends.items():
        assert set(end) == {"s", "f"}, f"flow id {flow_id} is half an arrow"
        s, f = end["s"], end["f"]
        assert (s["name"], s["cat"]) == (f["name"], f["cat"]) and f["bp"] == "e"
        arrows.append([s["name"], s["cat"],
                       [s["pid"], s["tid"], s["ts"]],
                       [f["pid"], f["tid"], f["ts"]]])
    return {
        "events": sorted(others, key=lambda e: json.dumps(e, sort_keys=True)),
        "arrows": sorted(arrows),
        "displayTimeUnit": doc["displayTimeUnit"],
        "otherData": doc["otherData"],
    }


def observe():
    doc, prof = render_stitched()
    assert validate_chrome_trace(doc) == []
    return {
        "plain": render_plain(PLAIN),
        "stitched": canonical(doc),
        "profile": prof,
    }


def pinned(key):
    # Through JSON once, so tuples and int keys compare as the file holds them.
    return json.loads(json.dumps(observe()[key])), json.loads(PINNED.read_text())[key]


def test_plain_render_is_the_pinned_document():
    ours, theirs = pinned("plain")
    assert ours == theirs
    assert not any(e["ph"] in ("s", "f") or e["name"] == "process_name"
                   for e in ours["traceEvents"])
    assert sorted(ours["otherData"]) == ["dropped_spans", "producer"]


def test_stitched_render_is_the_pinned_one_up_to_flow_ids():
    ours, theirs = pinned("stitched")
    assert ours["arrows"] == theirs["arrows"]
    assert ours["events"] == theirs["events"]
    assert ours == theirs
    # What the input was built to show.
    other = ours["otherData"]
    assert other["stitch_orphans"] == 1 and other["fabric_lanes"] == 2
    assert other["request_flows"] == 2 and other["dropped_spans"] == 3
    assert [a[0] for a in ours["arrows"]].count("dispatch") == 4


def test_profile_of_every_process_is_the_pinned_one():
    ours, theirs = pinned("profile")
    assert ours == theirs
    assert ours["total_activations"] == 9 and ours["dropped"] == 3
    assert ours["counters"]["fabric.ship_batches"] == 4


if __name__ == "__main__":
    print(json.dumps(observe(), indent=1))
