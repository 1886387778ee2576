"""The flight recorder: ring semantics, snapshot schema, error dumps.

The ring is module-global (deliberately: it must already be running
when the crash happens), so every test reconfigures it on the way in
and restores the default capacity on the way out.
"""

import json

import pytest

from repro.obs import flight


@pytest.fixture(autouse=True)
def fresh_ring():
    flight.configure(flight.DEFAULT_RING_SIZE)
    flight.set_dump_path(None)
    yield
    flight.configure(flight.DEFAULT_RING_SIZE)
    flight.set_dump_path(None)


class TestRing:
    def test_record_and_tail(self):
        flight.record("seq", "batch", {"changes": 3})
        flight.record("seq", "batch", {"changes": 1})
        tail = flight.tail()
        assert len(tail) == 2
        assert tail[0]["engine"] == "seq"
        assert tail[0]["event"] == "batch"
        assert tail[0]["detail"] == {"changes": 3}
        assert tail[1]["t_ns"] >= tail[0]["t_ns"]

    def test_ring_overwrites_oldest(self):
        flight.configure(4)
        for i in range(10):
            flight.record("e", "tick", {"i": i})
        tail = flight.tail()
        assert [e["detail"]["i"] for e in tail] == [6, 7, 8, 9]

    def test_tail_n_returns_most_recent(self):
        for i in range(5):
            flight.record("e", "tick", {"i": i})
        assert [e["detail"]["i"] for e in flight.tail(2)] == [3, 4]

    def test_recorded_total_outlives_overwrites(self):
        flight.configure(2)
        for _ in range(7):
            flight.record("e", "tick")
        doc = flight.snapshot("test")
        assert doc["recorded_total"] == 7
        assert doc["ring_capacity"] == 2
        assert len(doc["events"]) == 2

    def test_reset_empties_but_keeps_capacity(self):
        flight.configure(8)
        flight.record("e", "tick")
        flight.reset()
        assert flight.tail() == []
        doc = flight.snapshot("test")
        assert doc["ring_capacity"] == 8
        assert doc["recorded_total"] == 0

    def test_configure_rejects_zero(self):
        with pytest.raises(ValueError):
            flight.configure(0)


class TestSnapshot:
    def test_snapshot_is_schema_valid(self):
        flight.record("seq", "batch")
        doc = flight.snapshot("unit test")
        assert doc["schema"] == flight.FLIGHT_SCHEMA
        assert doc["reason"] == "unit test"
        assert doc["process"] == "control"
        assert flight.validate_flight(doc) == []

    def test_snapshot_embeds_worker_tails(self):
        assert "workers" not in flight.snapshot("nothing kept yet")
        flight.keep_remote_tail(4243, "match-1", [
            {"t_ns": 1, "engine": "mp.worker", "event": "start", "detail": None}])
        doc = flight.snapshot("crash")
        assert list(doc["workers"]) == ["match-1 (pid 4243)"]
        assert flight.validate_flight(doc) == []

    def test_remote_tails_are_the_most_recent_workers_up_to_a_constant(self):
        event = {"t_ns": 1, "engine": "mp.worker", "event": "batch", "detail": None}
        for pid in range(1, flight.REMOTE_TAILS + 11):
            flight.keep_remote_tail(pid, "match-0", [dict(event, t_ns=pid)])
        flight.keep_remote_tail(11, "match-0", [])  # empty: last-known stays
        flight.keep_remote_tail(12, "match-0", [dict(event, t_ns=-1)])
        tails = flight.remote_tails()
        assert len(tails) == flight.REMOTE_TAILS
        assert flight.remote_tail(10) == [] and "match-0 (pid 10)" not in tails
        assert flight.remote_tail(11) == [dict(event, t_ns=11)]
        # Heard from again: worker 12 is now the most recent, not the oldest.
        assert list(tails)[-1] == "match-0 (pid 12)"
        assert flight.remote_tail(12)[0]["t_ns"] == -1
        flight.reset()
        assert flight.remote_tails() == {}

    def test_write_snapshot_round_trip(self, tmp_path):
        flight.record("seq", "batch", {"changes": 2})
        path = tmp_path / "flight.json"
        flight.write_snapshot(str(path), "round trip")
        doc = json.loads(path.read_text())
        assert flight.validate_flight(doc) == []
        assert doc["events"][-1]["detail"] == {"changes": 2}

    def test_validate_catches_problems(self):
        assert flight.validate_flight([]) == ["document is not a JSON object"]
        assert any("schema" in p for p in flight.validate_flight({}))
        doc = flight.snapshot("ok")
        doc["events"] = "nope"
        assert any("events" in p for p in flight.validate_flight(doc))


class TestErrorDump:
    def test_dump_on_error_writes_when_path_set(self, tmp_path):
        path = tmp_path / "crash.json"
        flight.set_dump_path(str(path))
        flight.record("seq", "batch")
        assert flight.dump_on_error("unit crash") == str(path)
        doc = json.loads(path.read_text())
        assert doc["reason"] == "unit crash"
        assert flight.validate_flight(doc) == []

    def test_dump_on_error_noop_without_path(self):
        assert flight.dump_on_error("nowhere") is None

    def test_dump_on_error_env_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        monkeypatch.setenv(flight.DUMP_ENV, str(path))
        flight.record("seq", "batch")
        assert flight.dump_on_error("env crash") == str(path)
        assert path.exists()

    def test_dump_on_error_never_raises(self, tmp_path):
        flight.set_dump_path(str(tmp_path / "no" / "such" / "dir" / "f.json"))
        assert flight.dump_on_error("bad path") is None

    def test_interpreter_dumps_on_match_error(self, tmp_path):
        """An exception escaping the matcher leaves a flight snapshot
        behind (the on-unhandled-error hook in _apply_changes)."""
        from repro.ops5.interpreter import Interpreter
        from tests.conftest import FIND_COLORED_BLOCK

        path = tmp_path / "matcherr.json"
        flight.set_dump_path(str(path))
        interp = Interpreter(FIND_COLORED_BLOCK)

        def boom(changes):
            raise RuntimeError("forced match failure")

        interp.matcher.process_changes = boom
        with pytest.raises(RuntimeError, match="forced match failure"):
            interp.run(max_cycles=10)
        doc = json.loads(path.read_text())
        assert doc["reason"] == "match_error"
        assert flight.validate_flight(doc) == []
        events = [e["event"] for e in doc["events"]]
        assert "match_error" in events
