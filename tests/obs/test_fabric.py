"""One bus across processes: the ship, where it is filed, and what the
renderer draws from it.

Unit tests fabricate ships and file them on the real bus; the
integration class at the bottom runs the real mp engine (skipped where
'fork' is unavailable) and checks the cross-engine property shipping
exists for — an mp run's node profile covers the same node set as a
sequential run of the same program.

The class and test names predate the deletion of ``FabricCollector``,
``merged_snapshot`` and ``stitch_trace``: each still pins the behaviour
it named, now reached through ``fabric.file_ship``,
``events.snapshot()`` and ``export.chrome_trace``.
"""

import pytest

from repro.obs import events, flight
from repro.obs.export import WORKER_PID_BASE, chrome_trace, validate_chrome_trace
from repro.obs.fabric import build_ship, file_ship


def ship(wid=0, seq=1, pid=4242, t0=1_000, nodes=None, flight=None, **extra):
    payload = {
        "pid": pid,
        "spans": [(t0, 500, "mp.worker", "batch",
                   {"seq": seq, "wid": wid, "changes": 2})],
        "nodes": nodes or {},
        "counters": {"queue.push": 3},
        "dropped": 0,
        "ship_dropped": 0,
        "flight": flight if flight is not None else [
            {"t_ns": t0, "engine": "mp.worker", "event": "batch",
             "detail": {"seq": seq}}
        ],
    }
    payload.update(extra)
    return payload


def record_dispatches(seqs=(1,)):
    """What the control process records: one mp.dispatch span per seq."""
    for seq in seqs:
        events.span("mp", "dispatch", seq * 1_000 - 200, seq * 1_000 - 100,
                    {"changes": 2, "seq": seq})


@pytest.fixture(autouse=True)
def clean_flight():
    flight.reset()
    yield
    flight.reset()


class TestBuildShip:
    def test_snapshots_and_resets_the_local_bus(self, obs):
        events.span("task", "join", 10, 20)
        payload = build_ship()
        assert len(payload["spans"]) == 1
        assert payload["spans"][0][2:4] == ("task", "join")
        # The bus was reset: a second ship is an empty delta.
        assert build_ship()["spans"] == []

    def test_bounds_spans_and_counts_overflow(self, obs):
        for i in range(10):
            events.span("task", "join", i, i + 1)
        payload = build_ship(max_spans=4)
        assert len(payload["spans"]) == 4
        assert payload["ship_dropped"] == 6
        # The most recent spans survive, not the oldest.
        assert payload["spans"][-1][0] == 9

    @pytest.mark.parametrize("max_spans, shipped", [(0, 0), (2, 2), (3, 3), (5, 3)])
    def test_a_cap_of_n_ships_at_most_n_and_counts_the_rest_once(
        self, obs, max_spans, shipped
    ):
        for i in range(3):
            events.span("task", "join", i, i + 1)
        payload = build_ship(max_spans=max_spans)
        assert len(payload["spans"]) == shipped
        assert payload["ship_dropped"] == 3 - shipped
        file_ship("match-0", payload)
        counters = events.snapshot().counters
        assert counters.get("fabric.ship_spans", 0) == shipped
        assert counters.get("fabric.ship_dropped", 0) == 3 - shipped

    def test_carries_flight_tail(self, obs):
        flight.record("mp.worker", "start", {"wid": 0})
        payload = build_ship(tail_n=5)
        assert payload["flight"][-1]["event"] == "start"


class TestFabricCollector:
    def test_absorb_accumulates_lanes(self, obs):
        file_ship("match-0", ship(wid=0, seq=1))
        file_ship("match-0", ship(wid=0, seq=2, t0=2_000))
        file_ship("match-1", ship(wid=1, seq=1, pid=4243))
        snap = events.snapshot()
        assert snap.remote == {"match-0": 4242, "match-1": 4243}
        assert [len(snap.workers[name]) for name in sorted(snap.remote)] == [2, 1]
        assert snap.counters["queue.push"] == 9
        assert snap.counters["fabric.ship_batches"] == 3
        assert snap.counters["fabric.ship_spans"] == 3

    def test_lane_span_cap_counts_drops(self):
        """The worker's buffer is an ordinary one: the bus's own cap
        (what ``--max-events`` sets) bounds it and counts what it turns
        away, on top of what the worker already lost."""
        events.reset()
        events.enable(max_events_per_worker=3)
        try:
            many = ship(wid=0, dropped=1, ship_dropped=1)
            many["spans"] = [(i, 1, "mp.worker", "batch", None) for i in range(5)]
            file_ship("match-0", many)
            file_ship("match-0", ship(wid=0, seq=2))
            snap = events.snapshot()
        finally:
            events.disable()
            events.reset()
        assert [s[0] for s in snap.workers["match-0"]] == [0, 1, 2]
        assert snap.dropped == 2 + 2 + 1
        assert snap.counters["fabric.ship_dropped"] == 5
        assert events.dropped_total() >= 5  # retired with the epoch, never lost

    def test_node_aggregates_merge(self, obs):
        file_ship("match-0", ship(nodes={7: ["join", 2, 100, 4, 1]}))
        file_ship("match-0", ship(seq=2, nodes={7: ["join", 3, 50, 2, 0]}))
        assert events.snapshot().nodes[7] == ["join", 5, 150, 6, 1]

    def test_flight_tails_keeps_last_known(self):
        """The always-on half: filed with the bus off, kept by
        ``obs.flight``, present in every snapshot."""
        assert not events.ENABLED
        file_ship("match-0", ship(seq=1))
        file_ship("match-0", ship(seq=2, flight=[
            {"t_ns": 9, "engine": "mp.worker", "event": "stop", "detail": None}
        ]))
        # An empty tail on a later ship must not erase the last-known one.
        file_ship("match-0", ship(seq=3, flight=[]))
        assert flight.remote_tail(4242)[-1]["event"] == "stop"
        doc = flight.snapshot("test")
        assert doc["workers"]["match-0 (pid 4242)"][-1]["event"] == "stop"
        assert flight.validate_flight(doc) == []
        # ... and nothing reached the bus.
        assert events.snapshot().workers == {}

    def test_absorb_bumps_control_bus_counters(self, obs):
        file_ship("match-0", ship())
        snap = events.snapshot()
        assert snap.counters["fabric.ship_batches"] == 1
        assert snap.counters["fabric.ship_spans"] == 1


class TestMergedSnapshot:
    def test_lanes_become_worker_timelines(self, obs):
        record_dispatches()
        events.node_hit(7, "join", 10, 1, 0)
        events.node_hit(9, "not", 5, 0, 0)
        file_ship("match-0", ship(nodes={7: ["join", 2, 100, 4, 1]}))
        snap = events.snapshot()
        assert set(snap.workers) == {"MainThread", "match-0"}
        assert snap.remote == {"match-0": 4242}
        assert snap.nodes[7] == ["join", 3, 110, 5, 1]
        assert snap.nodes[9] == ["not", 1, 5, 0, 0]
        # A snapshot is a copy: filing more does not reach into it.
        file_ship("match-0", ship(seq=2, nodes={7: ["join", 1, 1, 1, 1]}))
        assert snap.nodes[7][1] == 3 and len(snap.workers["match-0"]) == 1

    def test_a_reset_retires_worker_buffers_like_thread_buffers(self, obs):
        file_ship("match-0", ship(dropped=4))
        before = events.dropped_total()
        events.reset()
        assert events.snapshot().remote == {}
        assert events.dropped_total() == before
        file_ship("match-0", ship(seq=2))
        assert len(events.snapshot().workers["match-0"]) == 1

    def test_same_named_workers_of_two_engines_stay_apart(self, obs):
        file_ship("match-0", ship(pid=10))
        file_ship("match-0", ship(pid=11, seq=2))
        assert events.snapshot().remote == {"match-0": 10, "match-0#1": 11}


class TestStitchTrace:
    def test_flow_links_dispatch_to_worker_batches(self, obs):
        record_dispatches(seqs=(1,))
        file_ship("match-0", ship(wid=0, seq=1))
        file_ship("match-1", ship(wid=1, seq=1, pid=4243))
        doc = chrome_trace(events.snapshot())
        assert validate_chrome_trace(doc) == []
        events_ = doc["traceEvents"]
        pids = {e["pid"] for e in events_}
        assert pids == {1, WORKER_PID_BASE, WORKER_PID_BASE + 1}
        starts = [e for e in events_ if e["ph"] == "s"]
        finishes = [e for e in events_ if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 2
        # One unique flow id per (dispatch, worker) arrow.
        assert len({e["id"] for e in starts}) == 2
        for f in finishes:
            assert f["bp"] == "e"
        assert doc["otherData"]["fabric_lanes"] == 2
        assert doc["otherData"]["stitch_orphans"] == 0

    def test_orphan_batches_are_counted_not_linked(self, obs):
        record_dispatches(seqs=(1,))
        file_ship("match-0", ship(seq=1))
        file_ship("match-0", ship(seq=99, t0=2_000))  # no such dispatch
        doc = chrome_trace(events.snapshot())
        assert doc["otherData"]["stitch_orphans"] == 1
        assert len([e for e in doc["traceEvents"] if e["ph"] == "s"]) == 1

    def test_process_names_label_the_lanes(self, obs):
        record_dispatches()
        file_ship("match-0", ship())
        doc = chrome_trace(events.snapshot())
        names = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {1: "control", WORKER_PID_BASE: "match-0 (pid 4242)"}

    def test_flow_ids_stay_distinct_past_a_hundred_lanes(self, obs):
        """``seq * 101 + wid`` collided once a lane was re-keyed to wid
        >= 101; ids are one running counter now."""
        record_dispatches(seqs=(1, 2))
        for k in range(103):
            file_ship(f"match-{k}", ship(wid=k, seq=1 + k % 2, pid=5_000 + k))
        doc = chrome_trace(events.snapshot())
        ids = [e["id"] for e in doc["traceEvents"] if e["ph"] == "s"]
        assert len(ids) == len(set(ids)) == 103
        assert doc["otherData"]["fabric_lanes"] == 103


# -- integration against the real mp engine ---------------------------------


from repro.parallel.mp import ProcessMatcher, mp_supported  # noqa: E402

needs_mp = pytest.mark.skipif(
    not mp_supported(), reason="mp engine needs the 'fork' start method"
)

#: The 5x1 weaver on 2 workers, bus on, an untrippable watchdog riding
#: along: ship batches, shipped spans, stitch orphans, trace schema
#: problems and watchdog trips -- functions of the run, not of the
#: host's cores.  One batch has roots for one worker only; the other
#: gets no message and so records no ``batch`` span (414 while every
#: batch was broadcast to both workers).
FABRIC_MP = {"ship_batches": 414, "shipped_spans": 413, "stitch_orphans": 0,
             "trace_problems": 0, "watchdog_trips": 0}


@needs_mp
class TestMpIntegration:
    def run_traced(self, source, engine, **opts):
        from repro.ops5.interpreter import Interpreter

        events.reset()
        events.enable()
        try:
            interp = Interpreter(source, engine=engine, engine_opts=opts)
            try:
                interp.run(max_cycles=2000)
                snap = events.snapshot()
                return interp, snap
            finally:
                interp.close()
        finally:
            events.disable()
            events.reset()

    def test_mp_node_profile_matches_sequential_node_set(self):
        """The cross-engine property: a bus-on tourney run under mp
        must yield per-node profiles covering exactly the node
        set the sequential engine activates, each node as many times
        as the sequential run activates it — the workers' shipped
        aggregates are the real thing, not a subsample — and the
        merged total must equal what the mp engine's own MatchStats
        counted, the identity the ``repro trace`` footer checks."""
        from repro.programs import tourney

        source = tourney.source(n_teams=4, n_rounds=3)
        seq_interp, seq_snap = self.run_traced(source, "sequential")
        mp_interp, merged = self.run_traced(source, "mp", n_workers=2)
        assert len(merged.remote) == 2
        assert set(merged.nodes) == set(seq_snap.nodes)
        for node_id, agg in merged.nodes.items():
            assert agg[0] == seq_snap.nodes[node_id][0]  # same kind
            assert agg[1] == seq_snap.nodes[node_id][1]
        assert sum(agg[1] for agg in merged.nodes.values()) == (
            mp_interp.matcher.stats.node_activations
        )

    def test_weaver_fabric_counts_are_the_pinned_ones(self):
        from repro.programs import weaver

        interp, snap = self.run_traced(
            weaver.source(grid=5, n_nets=1), "mp", n_workers=2, watchdog_s=600.0)
        doc = chrome_trace(snap)
        assert {
            "ship_batches": snap.counters["fabric.ship_batches"],
            "shipped_spans": snap.counters["fabric.ship_spans"],
            "stitch_orphans": doc["otherData"]["stitch_orphans"],
            "trace_problems": len(validate_chrome_trace(doc)),
            "watchdog_trips": interp.matcher.watchdog.trips,
        } == FABRIC_MP

    def test_stitched_trace_covers_all_processes(self):
        from tests.conftest import FIND_COLORED_BLOCK

        _interp, snap = self.run_traced(FIND_COLORED_BLOCK, "mp", n_workers=2)
        doc = chrome_trace(snap)
        assert doc["otherData"]["stitch_orphans"] == 0
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, WORKER_PID_BASE, WORKER_PID_BASE + 1}
        assert any(e["ph"] == "s" for e in doc["traceEvents"])

    def test_worker_tails_flow_with_bus_off(self):
        """Ships travel on every flush even with tracing disabled —
        that is what keeps dead-worker forensics and watchdog bundles
        available in an untraced run."""
        from repro.ops5.interpreter import Interpreter
        from tests.conftest import FIND_COLORED_BLOCK

        assert not events.ENABLED
        interp = Interpreter(FIND_COLORED_BLOCK, engine="mp",
                             engine_opts={"n_workers": 2})
        try:
            interp.run(max_cycles=100)
        finally:
            interp.close()
        # Read after close(): the tails belong to obs.flight, not to
        # the matcher that received them.
        tails = flight.remote_tails()
        assert sorted(name.split(" (pid ")[0] for name in tails) == [
            "match-0", "match-1"]
        for tail in tails.values():
            assert any(e["engine"] == "mp.worker" for e in tail)
        # But nothing was filed on the bus: it was off in the workers.
        assert events.snapshot().workers == {}
