"""Nothing is lost when one diagnostic document folds into another.

The key sets below are what the serve ``profile`` and ``meter``
replies and the stall watchdog's ``repro.watchdog/1`` bundle carried,
recorded from the live documents before they folded into ``stats`` and
the flight snapshot's ``stall``.  Every key is still there, or is one
of the snapshot's own fields.
"""

import asyncio

from repro.obs import events, flight
from repro.obs.watchdog import StallWatchdog
from repro.serve.metrics import SessionCounters
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.server import ReproServer

from .serve.conftest import COUNTER, request

PROFILE_SESSION_KEYS = {
    "session", "cycle", "wm_size", "halted", "match", "activations_by_kind",
    "counters", "queue_depth", "program",
}
PROFILE_SERVER_KEYS = {"sessions", "netcache", "obs_enabled", "obs"}
METER_KEYS = {"enabled", "meter"}
STALL_BUNDLE_KEYS = {
    "schema", "engine", "reason", "tripped_unix", "stalled_for_s",
    "stall_after_s", "tasks_done", "queues", "stuck_queue", "lock_holders",
    "extra", "history", "flight", "worker_flight",
}


def replies():
    """The per-session and server-wide ``stats`` reply of a server with
    one transacted session, the bus on."""

    async def scenario():
        server = ReproServer()
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
        try:
            sid = (await request(reader, writer, {
                "id": 1, "type": "open", "program": COUNTER}))["session"]
            await request(reader, writer, {
                "id": 2, "type": "transact", "session": sid,
                "ops": [{"op": "make", "class": "counter",
                         "attrs": {"n": 0, "limit": 3}}]})
            per = await request(
                reader, writer, {"id": 3, "type": "stats", "session": sid})
            wide = await request(reader, writer, {"id": 4, "type": "stats"})
            return per, wide
        finally:
            writer.close()
            await server.shutdown()

    events.reset()
    events.enable()
    try:
        return asyncio.run(scenario())
    finally:
        events.disable()
        events.reset()


def body(reply):
    return set(reply) - {"id", "ok"}


def test_every_profile_and_meter_key_lives_in_stats():
    per, wide = replies()
    entry = per["stats"]
    # The profile's ``session`` is the reply's, its ``counters`` are the
    # entry's own flat counters.
    assert PROFILE_SESSION_KEYS - {"session", "counters"} <= set(entry)
    assert per["session"] in wide["sessions"]
    assert set(SessionCounters().snapshot()) <= set(entry)
    assert PROFILE_SERVER_KEYS <= body(wide)
    # ``enabled`` rides inside the meter snapshot.
    assert METER_KEYS - {"enabled"} <= body(wide)
    assert wide["meter"]["enabled"] is False


def test_every_stall_bundle_key_lives_in_the_snapshot_stall():
    stuck = {"tasks_done": 5, "queues": [{"name": "queue[0]", "depth": 3}],
             "lock_holders": {}, "extra": {}}
    dog = StallWatchdog(lambda: stuck, engine="unit", stall_after_s=1.0)
    flight.reset()
    try:
        flight.keep_remote_tail(4242, "match-0", [
            {"t_ns": 1, "engine": "mp.worker", "event": "start", "detail": None}])
        dog.evaluate(0.0, stuck)
        dog.evaluate(2.0, stuck)
        doc = flight.snapshot("stall")
    finally:
        flight.reset()
    own = {"schema": "schema", "reason": "reason", "flight": "events",
           "worker_flight": "workers"}
    assert STALL_BUNDLE_KEYS - set(own) <= set(doc["stall"])
    assert set(own.values()) <= set(doc)
    assert flight.validate_flight(doc) == []
