"""The stall watchdog: trip decision, the stall it files, engine wiring.

The trip-evaluation core is synchronous (``evaluate(now_s, sample)``),
so most tests drive it with a fabricated clock — no sleeping, no
timing flake.  One integration test exercises the real daemon thread
against a synthetically stuck probe (the "forced stall" fixture).
"""

import json
import time

import pytest

from repro.obs import flight
from repro.obs.watchdog import StallWatchdog


@pytest.fixture(autouse=True)
def fresh_flight():
    """Trips file their stall with the module-global flight recorder."""
    flight.configure(flight.DEFAULT_RING_SIZE)
    flight.set_dump_path(None)
    yield
    flight.configure(flight.DEFAULT_RING_SIZE)
    flight.set_dump_path(None)


def sample(done, *depths, holders=None):
    """A probe reading: ``depths`` are ``(queue name, depth)`` pairs."""
    return {
        "tasks_done": done,
        "queues": [{"name": name, "depth": depth} for name, depth in depths],
        "lock_holders": holders or {},
        "extra": {"workers_alive": 2},
    }


def stuck_sample(done=5, depth=7):
    return sample(done, ("queue[0]", 0), ("queue[1]", depth),
                  holders={"queue[1]": "match-1"})


class TestProbeSample:
    def test_pending_sums_depths(self):
        """Pending work is any nonzero depth, in any queue: all zeros
        never trips, one task anywhere does."""
        for depths, trips in (((0, 0), False), ((0, 1), True), ((3, 0), True)):
            dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
            reading = sample(5, *zip(("queue[0]", "queue[1]"), depths))
            dog.evaluate(0.0, reading)
            assert (dog.evaluate(2.0, reading) is not None) is trips, depths


class TestTripDecision:
    def test_synthetic_stall_fires_once(self):
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        assert dog.evaluate(0.0, stuck_sample()) is None  # first sample
        assert dog.evaluate(0.5, stuck_sample()) is None  # under threshold
        stall = dog.evaluate(1.5, stuck_sample())         # over: trip
        assert stall is not None
        assert dog.trips == 1 and dog.tripped
        # Same episode: no re-trip no matter how long it drags on.
        assert dog.evaluate(2.5, stuck_sample()) is None
        assert dog.evaluate(99.0, stuck_sample()) is None
        assert dog.trips == 1

    def test_bundle_is_schema_valid_and_names_stuck_queue(self):
        """The stall rides the flight snapshot, which validates with
        it."""
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample())
        stall = dog.evaluate(2.0, stuck_sample())
        doc = flight.snapshot("test")
        assert doc["stall"] == stall == dog.stalls[-1]
        assert flight.validate_flight(doc) == []
        assert doc["schema"] == flight.FLIGHT_SCHEMA
        assert stall["engine"] == "unit"
        assert stall["stuck_queue"] == "queue[1]"
        assert stall["lock_holders"] == {"queue[1]": "match-1"}
        assert stall["stalled_for_s"] >= 1.0
        assert len(stall["history"]) == 2
        json.dumps(stall)  # must be JSON-serializable as-is

    def test_no_false_positive_when_idle_but_quiescent(self):
        """tasks_done frozen forever is fine as long as nothing is
        pending — an idle engine is not a stalled engine."""
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=0.5)
        idle = sample(42, ("queue[0]", 0))
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

    def test_trip_writes_the_snapshot_to_the_dump_path(self, tmp_path):
        path = tmp_path / "stall.json"
        flight.set_dump_path(str(path))
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample())
        dog.evaluate(2.0, stuck_sample())
        doc = json.loads(path.read_text())
        assert flight.validate_flight(doc) == []
        assert doc["reason"] == "stall"
        assert doc["stall"]["stuck_queue"] == "queue[1]"
        # The ring it was written with already holds the trip.
        assert doc["events"][-1]["event"] == "watchdog.trip"

    def test_bundle_embeds_worker_flight_tails(self):
        """The worker tails ride the snapshot as its own ``workers``,
        beside the ``stall``."""
        tail = [{"t_ns": 1, "engine": "mp.worker",
                 "event": "start", "detail": None}]
        flight.keep_remote_tail(4242, "match-0", tail)
        dog = StallWatchdog(lambda: None, engine="mp", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample())
        dog.evaluate(2.0, stuck_sample())
        doc = flight.snapshot("test")
        assert doc["workers"] == {"match-0 (pid 4242)": tail}
        assert doc["stall"]["engine"] == "mp"
        assert flight.validate_flight(doc) == []

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            StallWatchdog(lambda: None, stall_after_s=0.0)


class TestValidateStall:
    def test_catches_problems(self):
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample())
        stall = dog.evaluate(2.0, stuck_sample())
        doc = flight.snapshot("test")

        def problems(**bad):
            return flight.validate_flight(dict(doc, stall=dict(stall, **bad)))

        assert flight.validate_flight(dict(doc, stall=[])) == [
            "stall is not an object"]
        assert any("stuck_queue" in p for p in problems(stuck_queue=None))
        assert any("tasks_done" in p for p in problems(tasks_done="5"))
        assert any("queues[0]" in p for p in problems(queues=[{"name": 1}]))
        assert any("history" in p for p in problems(history=None))


class TestForcedStall:
    def test_daemon_thread_trips_on_stuck_probe(self):
        """The acceptance fixture: a probe that forever reports pending
        work and a frozen done-counter must trip the real watchdog
        thread within ~stall_after_s, emitting one schema-valid stall
        naming the stuck queue."""
        dog = StallWatchdog(
            lambda: stuck_sample(), engine="forced", stall_after_s=0.05,
        ).start()
        try:
            deadline = time.monotonic() + 5.0
            while not dog.tripped and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            dog.stop()
        assert len(dog.stalls) == 1
        doc = flight.snapshot("test")
        assert flight.validate_flight(doc) == []
        assert doc["stall"]["stuck_queue"] == "queue[1]"

    def test_trip_lands_in_the_flight_ring(self):
        dog = StallWatchdog(lambda: None, engine="unit", stall_after_s=1.0)
        dog.evaluate(0.0, stuck_sample())
        dog.evaluate(2.0, stuck_sample())
        events = [e for e in flight.tail() if e["event"] == "watchdog.trip"]
        assert events
        assert events[-1]["detail"]["stuck_queue"] == "queue[1]"

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
