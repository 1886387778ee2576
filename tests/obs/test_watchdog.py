"""The stall watchdog: trip decision, bundle schema, engine wiring.

The trip-evaluation core is synchronous (``evaluate(now_s, sample)``),
so most tests drive it with a fabricated clock — no sleeping, no
timing flake.  One integration test exercises the real daemon thread
against a synthetically stuck probe (the "forced stall" fixture).
"""

import json
import time

import pytest

from repro.obs import flight
from repro.obs.watchdog import (
    ProbeSample,
    StallWatchdog,
    WATCHDOG_SCHEMA,
    validate_bundle,
)


def stuck_sample(done=5, depth=7):
    return ProbeSample(
        tasks_done=done,
        queues=[("queue[0]", 0), ("queue[1]", depth)],
        lock_holders={"queue[1]": "match-1"},
        extra={"workers_alive": 2},
    )


class TestProbeSample:
    def test_pending_sums_depths(self):
        assert stuck_sample(depth=7).pending == 7

    def test_negative_depth_counts_as_one_pending(self):
        # The mp backend's OS pipes expose no length; -1 means
        # "unknown but non-empty" and must still count as pending work.
        sample = ProbeSample(tasks_done=0, queues=[("pipe", -1)])
        assert sample.pending == 1


class TestTripDecision:
    def test_synthetic_stall_fires_once(self):
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        assert dog.evaluate(0.0, stuck_sample()) is None  # first sample
        assert dog.evaluate(0.5, stuck_sample()) is None  # under threshold
        bundle = dog.evaluate(1.5, stuck_sample())        # over: trip
        assert bundle is not None
        assert dog.trips == 1 and dog.tripped
        # Same episode: no re-trip no matter how long it drags on.
        assert dog.evaluate(2.5, stuck_sample()) is None
        assert dog.evaluate(99.0, stuck_sample()) is None
        assert dog.trips == 1

    def test_bundle_is_schema_valid_and_names_stuck_queue(self):
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample())
        bundle = dog.evaluate(2.0, stuck_sample())
        assert validate_bundle(bundle) == []
        assert bundle["schema"] == WATCHDOG_SCHEMA
        assert bundle["engine"] == "unit"
        assert bundle["stuck_queue"] == "queue[1]"
        assert bundle["lock_holders"] == {"queue[1]": "match-1"}
        assert bundle["stalled_for_s"] >= 1.0
        assert len(bundle["history"]) == 2
        json.dumps(bundle)  # must be JSON-serializable as-is

    def test_no_false_positive_when_idle_but_quiescent(self):
        """tasks_done frozen forever is fine as long as nothing is
        pending — an idle engine is not a stalled engine."""
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=0.5)
        idle = ProbeSample(tasks_done=42, queues=[("queue[0]", 0)])
        for t in range(100):
            assert dog.evaluate(float(t), idle) is None
        assert not dog.tripped

    def test_progress_resets_the_stall_clock(self):
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample(done=1))
        dog.evaluate(0.9, stuck_sample(done=2))  # progress
        assert dog.evaluate(1.8, stuck_sample(done=2)) is None  # only 0.9s stuck
        assert not dog.tripped

    def test_rearms_after_progress_for_a_second_episode(self):
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample(done=1))
        assert dog.evaluate(2.0, stuck_sample(done=1)) is not None
        dog.evaluate(3.0, stuck_sample(done=2))  # progress: re-arm
        assert dog.evaluate(3.5, stuck_sample(done=2)) is None  # under threshold
        assert dog.evaluate(5.0, stuck_sample(done=2)) is not None
        assert dog.trips == 2

    def test_on_trip_callback_and_dump_path(self, tmp_path):
        path = tmp_path / "stall.json"
        seen = []
        dog = StallWatchdog(
            lambda: None, engine="unit", stall_after_s=1.0,
            on_trip=seen.append, dump_path=str(path),
        )
        dog.evaluate(0.0, stuck_sample())
        dog.evaluate(2.0, stuck_sample())
        assert len(seen) == 1
        doc = json.loads(path.read_text())
        assert validate_bundle(doc) == []
        assert doc["stuck_queue"] == "queue[1]"

    def test_bundle_embeds_worker_flight_tails(self):
        tail = [{"t_ns": 1, "engine": "mp.worker",
                 "event": "start", "detail": None}]
        flight.reset()
        flight.keep_remote_tail(4242, "match-0", tail)
        try:
            dog = StallWatchdog(lambda: None, engine="mp", stall_after_s=1.0)
            dog.evaluate(0.0, stuck_sample())
            bundle = dog.evaluate(2.0, stuck_sample())
        finally:
            flight.reset()
        assert bundle["worker_flight"] == {"match-0 (pid 4242)": tail}
        assert validate_bundle(bundle) == []

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            StallWatchdog(lambda: None, stall_after_s=0.0)


class TestValidateBundle:
    def test_catches_problems(self):
        assert validate_bundle([]) == ["document is not a JSON object"]
        assert any("schema" in p for p in validate_bundle({}))
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample())
        bundle = dog.evaluate(2.0, stuck_sample())
        broken = dict(bundle, stuck_queue=None)
        assert any("stuck_queue" in p for p in validate_bundle(broken))


class TestForcedStall:
    def test_daemon_thread_trips_on_stuck_probe(self):
        """The acceptance fixture: a probe that forever reports pending
        work and a frozen done-counter must trip the real watchdog
        thread within ~stall_after_s, emitting one schema-valid bundle
        naming the stuck queue."""
        trips = []
        dog = StallWatchdog(
            lambda: stuck_sample(),
            engine="forced",
            stall_after_s=0.05,
            on_trip=trips.append,
        ).start()
        try:
            deadline = time.monotonic() + 5.0
            while not trips and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            dog.stop()
        assert len(trips) == 1
        assert validate_bundle(trips[0]) == []
        assert trips[0]["stuck_queue"] == "queue[1]"

    def test_trip_lands_in_the_flight_ring(self):
        flight.configure(flight.DEFAULT_RING_SIZE)
        try:
            dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
            dog.evaluate(0.0, stuck_sample())
            dog.evaluate(2.0, stuck_sample())
            events = [e for e in flight.tail() if e["event"] == "watchdog.trip"]
            assert events
            assert events[-1]["detail"]["stuck_queue"] == "queue[1]"
        finally:
            flight.configure(flight.DEFAULT_RING_SIZE)

    def test_probe_exception_is_survivable(self):
        """A probe racing engine teardown may raise; the sampling loop
        must skip the tick, not die."""
        calls = []

        def flaky():
            calls.append(1)
            raise RuntimeError("engine mid-teardown")

        dog = StallWatchdog(flaky, engine="unit", stall_after_s=0.05).start()
        try:
            deadline = time.monotonic() + 5.0
            while len(calls) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            dog.stop()
        assert len(calls) >= 3
        assert not dog.tripped
