"""End-to-end server tests over real sockets (one event loop per test)."""

import asyncio
import json
import re

import pytest

from repro.ops5.interpreter import WMOp
from repro.serve.limits import ServiceLimits
from repro.serve.protocol import MAX_LINE_BYTES, ProtocolError, decode_line, encode
from repro.serve.session import Busy

from .conftest import COUNTER, SPINNER, request, with_server


def open_counter(reader, writer, **extra):
    return request(
        reader, writer, {"id": 1, "type": "open", "program": COUNTER, **extra}
    )


class TestLifecycle:
    def test_ping(self):
        async def scenario(server, reader, writer):
            resp = await request(reader, writer, {"id": 1, "type": "ping"})
            assert resp == {"id": 1, "ok": True, "pong": True}

        with_server(scenario)

    def test_open_transact_close(self):
        async def scenario(server, reader, writer):
            resp = await open_counter(reader, writer)
            assert resp["ok"] and not resp["cached"]
            sid = resp["session"]
            resp = await request(
                reader,
                writer,
                {
                    "id": 2,
                    "type": "transact",
                    "session": sid,
                    "ops": [
                        {"op": "make", "class": "counter",
                         "attrs": {"n": 0, "limit": 2}}
                    ],
                    "max_cycles": 100,
                },
            )
            assert resp["ok"]
            assert resp["outcome"] == "halted"
            assert resp["cycles"] == 3
            assert [f[1] for f in resp["firings"]] == ["tick", "tick", "done"]
            assert resp["output"] == ["tick 0", "tick 1", "done 2"]
            assert len(resp["created"]) == 1
            resp = await request(
                reader, writer, {"id": 3, "type": "close", "session": sid}
            )
            assert resp["ok"] and resp["closed"] == sid

        with_server(scenario)

    def test_second_open_reuses_network(self):
        async def scenario(server, reader, writer):
            first = await open_counter(reader, writer)
            second = await open_counter(reader, writer)
            assert not first["cached"] and second["cached"]
            assert first["key"] == second["key"]
            assert first["session"] != second["session"]
            assert len(server.netcache) == 1

        with_server(scenario)

    def test_stats_reports_sessions_and_cache(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            await request(
                reader,
                writer,
                {"id": 2, "type": "transact", "session": sid, "max_cycles": 0},
            )
            resp = await request(reader, writer, {"id": 3, "type": "stats"})
            assert resp["server"]["transactions"] == 1
            assert resp["netcache"]["entries"] == 1
            assert sid in resp["sessions"]
            per = await request(
                reader, writer, {"id": 4, "type": "stats", "session": sid}
            )
            assert per["stats"]["transactions"] == 1
            assert per["stats"]["latency"]["count"] == 1

        with_server(scenario)

    def test_stats_prometheus_format(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            await request(
                reader,
                writer,
                {"id": 2, "type": "transact", "session": sid, "max_cycles": 0},
            )
            resp = await request(
                reader, writer,
                {"id": 3, "type": "stats", "format": "prometheus"},
            )
            assert resp["ok"] and resp["format"] == "prometheus"
            body = resp["body"]
            assert "# TYPE repro_requests_total counter" in body
            assert "repro_transactions_total 1" in body
            assert "repro_netcache_entries 1" in body
            assert f'repro_session_transactions_total{{session="{sid}"}} 1' in body
            # Event-bus health: span-buffer saturation is visible from
            # a plain stats scrape even when tracing is off.
            assert "# TYPE repro_obs_dropped_events_total counter" in body
            # The counter is monotonic over the process lifetime, so
            # other tests' captures may have contributed drops — assert
            # presence and shape, not a literal zero.
            assert re.search(
                r"^repro_obs_dropped_events_total \d+$", body, re.M
            )
            assert "repro_obs_enabled 0" in body

        with_server(scenario)

    def test_stats_unknown_format_rejected(self):
        async def scenario(server, reader, writer):
            resp = await request(
                reader, writer, {"id": 1, "type": "stats", "format": "xml"}
            )
            assert not resp["ok"]
            assert resp["error"]["code"] == "bad-request"

        with_server(scenario)

    def test_per_session_prometheus_is_refused_not_answered_in_json(self):
        """The exposition is server-wide; a session's stats asked for in
        it used to come back as that session's JSON."""
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            resp = await request(reader, writer, {
                "id": 2, "type": "stats", "session": sid, "format": "prometheus",
            })
            assert not resp["ok"]
            assert resp["error"]["code"] == "bad-request"
            assert "server-wide" in resp["error"]["message"]
            resp = await request(
                reader, writer, {"id": 3, "type": "stats", "session": sid}
            )
            assert resp["ok"] and resp["session"] == sid

        with_server(scenario)

    def test_stats_carries_the_match_profile(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            await request(
                reader,
                writer,
                {
                    "id": 2,
                    "type": "transact",
                    "session": sid,
                    "ops": [{"op": "make", "class": "counter",
                             "attrs": {"n": 0, "limit": 3}}],
                    "max_cycles": 10,
                },
            )
            per = await request(
                reader, writer, {"id": 3, "type": "stats", "session": sid}
            )
            assert per["session"] == sid
            prof = per["stats"]
            assert prof["cycle"] == 4
            assert prof["match"]["node_activations"] > 0
            assert sum(prof["activations_by_kind"].values()) == (
                prof["match"]["node_activations"]
            )
            assert prof["transactions"] == 1

            wide = await request(reader, writer, {"id": 4, "type": "stats"})
            assert wide["sessions"][sid]["match"] == prof["match"]
            assert wide["netcache"]["entries"] == 1
            # The event bus is off in tests; the global obs profile is
            # present only when it is enabled.
            assert wide["obs_enabled"] is False
            assert "obs" not in wide
            assert wide["meter"]["enabled"] is False

            missing = await request(
                reader, writer, {"id": 5, "type": "stats", "session": "s99"}
            )
            assert not missing["ok"]
            assert missing["error"]["code"] == "unknown-session"

        with_server(scenario)

    def test_dump_verb_returns_flight_snapshot(self):
        """The crash-time verb: a schema-valid flight-recorder snapshot
        plus event-bus health, with no tracing enabled anywhere."""
        from repro.obs.flight import validate_flight

        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            await request(
                reader,
                writer,
                {"id": 2, "type": "transact", "session": sid,
                 "ops": [{"op": "make", "class": "counter",
                          "attrs": {"n": 0, "limit": 3}}],
                 "max_cycles": 10},
            )
            resp = await request(reader, writer, {"id": 3, "type": "dump"})
            assert resp["ok"]
            assert validate_flight(resp["flight"]) == []
            assert resp["obs_enabled"] is False
            assert isinstance(resp["dropped_events"], int)
            # The transaction above left engine events in the ring.
            assert resp["flight"]["events"]

        with_server(scenario)

    def test_shutdown_request_drains_server(self):
        async def scenario(server, reader, writer):
            resp = await request(reader, writer, {"id": 1, "type": "shutdown"})
            assert resp["ok"] and resp["shutting_down"]

        with_server(scenario)


class TestErrors:
    def test_unknown_type_and_bad_json(self):
        async def scenario(server, reader, writer):
            resp = await request(reader, writer, {"id": 1, "type": "warp"})
            assert not resp["ok"] and resp["error"]["code"] == "bad-request"
            writer.write(b"{not json\n")
            await writer.drain()
            resp = json.loads(await reader.readline())
            assert not resp["ok"] and resp["error"]["code"] == "bad-request"
            # The connection survives both.
            assert (await request(reader, writer, {"id": 2, "type": "ping"}))["ok"]

        with_server(scenario)

    def test_over_long_line_is_answered_before_the_close(self):
        """A frame past MAX_LINE_BYTES cannot be resynchronised, so the
        connection ends — but with a typed error first, not a bare EOF."""
        async def scenario(server, reader, writer):
            writer.write(b"x" * (MAX_LINE_BYTES + 1))
            await writer.drain()
            resp = json.loads(await asyncio.wait_for(reader.readline(), 5))
            assert resp["id"] is None and not resp["ok"]
            assert resp["error"]["code"] == "bad-request"
            assert f"exceeds {MAX_LINE_BYTES} bytes" in resp["error"]["message"]
            assert await asyncio.wait_for(reader.read(), 5) == b""
            assert server.metrics.errors == 1

        with_server(scenario)

    def test_unknown_session(self):
        async def scenario(server, reader, writer):
            resp = await request(
                reader, writer, {"id": 1, "type": "transact", "session": "s99"}
            )
            assert resp["error"]["code"] == "unknown-session"

        with_server(scenario)

    def test_unparsable_program(self):
        async def scenario(server, reader, writer):
            resp = await request(
                reader, writer, {"id": 1, "type": "open", "program": "(p broken"}
            )
            assert resp["error"]["code"] == "parse-error"

        with_server(scenario)

    def test_duplicate_rule_name_is_the_clients_error(self):
        """A program that defines one rule twice is a bad program, not a
        server fault: ``parse-error`` naming the rule and the line of
        its second definition, and the connection stays usable."""
        dup = "(p r (a) --> (halt))\n(p r (b) --> (halt))"

        async def scenario(server, reader, writer):
            resp = await request(reader, writer, {"id": 1, "type": "open", "program": dup})
            assert resp["error"]["code"] == "parse-error"
            assert "duplicate production name 'r' (line 2)" in resp["error"]["message"]
            assert (await request(reader, writer, {"id": 2, "type": "ping"}))["pong"]
            assert (await open_counter(reader, writer))["ok"]

        with_server(scenario)

    def test_session_limit(self):
        async def scenario(server, reader, writer):
            assert (await open_counter(reader, writer))["ok"]
            resp = await open_counter(reader, writer)
            assert resp["error"]["code"] == "session-limit"
            assert resp["error"]["retry_after_ms"] == 50.0

        with_server(scenario, limits=ServiceLimits(max_sessions=1))

    def test_cycle_budget_over_cap_rejected(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            resp = await request(
                reader,
                writer,
                {"id": 2, "type": "transact", "session": sid, "max_cycles": 11},
            )
            assert resp["error"]["code"] == "budget-exceeded"
            assert "exceeds the server cap" in resp["error"]["message"]

        with_server(
            scenario,
            limits=ServiceLimits(max_cycles_per_txn=10, default_cycles_per_txn=5),
        )

    def test_txn_rejection_is_atomic_over_the_wire(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            resp = await request(
                reader,
                writer,
                {
                    "id": 2,
                    "type": "transact",
                    "session": sid,
                    "ops": [
                        {"op": "make", "class": "counter",
                         "attrs": {"n": 0, "limit": 5}},
                        {"op": "remove", "timetag": 404},
                    ],
                },
            )
            assert resp["error"]["code"] == "txn-rejected"
            resp = await request(
                reader,
                writer,
                {"id": 3, "type": "transact", "session": sid, "max_cycles": 0},
            )
            assert resp["ok"] and resp["wm_size"] == 0

        with_server(scenario)

    def test_deadline_outcome_over_the_wire(self):
        async def scenario(server, reader, writer):
            resp = await request(
                reader, writer, {"id": 1, "type": "open", "program": SPINNER}
            )
            sid = resp["session"]
            resp = await request(
                reader,
                writer,
                {
                    "id": 2,
                    "type": "transact",
                    "session": sid,
                    "ops": [{"op": "make", "class": "spin", "attrs": {"n": 0}}],
                    "max_cycles": 10_000,
                    "deadline_ms": 1,
                },
            )
            assert resp["ok"] and resp["outcome"] == "deadline"

        with_server(scenario)

    def test_bad_budget_types(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            for field, value in (("max_cycles", "ten"), ("deadline_ms", "soon")):
                resp = await request(
                    reader,
                    writer,
                    {"id": 2, "type": "transact", "session": sid, field: value},
                )
                assert resp["error"]["code"] == "bad-request"

        with_server(scenario)


    @pytest.mark.parametrize("deadline_ms", [
        float("nan"), float("inf"), float("-inf"), True,
    ])
    def test_non_finite_or_bool_deadline_is_a_bad_request(self, deadline_ms):
        """``json.loads`` reads ``NaN`` and ``Infinity``; a NaN deadline
        resolved to a deadline that never fired."""
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            resp = await request(
                reader, writer,
                {"id": 2, "type": "transact", "session": sid,
                 "deadline_ms": deadline_ms},
            )
            assert not resp["ok"]
            assert resp["error"]["code"] == "bad-request"
            assert "finite number" in resp["error"]["message"]
            ok = await request(
                reader, writer,
                {"id": 3, "type": "transact", "session": sid, "deadline_ms": 50},
            )
            assert ok["ok"]

        with_server(scenario)


class TestBackpressure:
    def test_inbox_overflow_reports_busy_on_the_wire(self):
        """Stage more transactions than the inbox holds in one batch —
        before the worker can drain — and the overflow must come back
        as ``busy`` + ``retry_after_ms``, while the accepted ones all
        complete."""

        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            session = server.sessions[sid]
            n = 6
            futs = []
            busy = 0
            # Submit in one synchronous burst: the worker gets no chance
            # to drain between submits, so the overflow is deterministic.
            for _ in range(n):
                try:
                    futs.append(session.submit([], max_cycles=0))
                except Busy as exc:
                    assert exc.retry_after_ms == server.limits.retry_after_ms
                    busy += 1
            assert busy == n - server.limits.inbox_depth
            assert server.limits.inbox_depth == len(futs)
            results = await asyncio.gather(*futs)
            assert all(r.outcome == "quiescent" for r in results)

        with_server(scenario, limits=ServiceLimits(inbox_depth=2))

    def test_a_full_inbox_answers_busy_over_the_socket(self):
        """The wire half: with the session's worker held, transactions
        pipelined past ``inbox_depth`` come back ``busy`` with the
        server's ``retry_after_ms`` and count in ``rejected_busy``; the
        held one completes once the worker runs again."""
        limits = ServiceLimits(inbox_depth=1)
        n = 4

        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            session = server.sessions[sid]
            session._worker.cancel()  # held: nothing drains the inbox
            writer.write(b"".join(
                encode({"id": 10 + i, "type": "transact", "session": sid,
                        "ops": [], "max_cycles": 0})
                for i in range(n)))
            await writer.drain()
            bounced = [decode_line(await reader.readline()) for _ in range(n - 1)]
            assert sorted(r["id"] for r in bounced) == [11, 12, 13]
            assert {r["error"]["code"] for r in bounced} == {"busy"}
            assert {r["error"]["retry_after_ms"] for r in bounced} == {
                limits.retry_after_ms}
            session.start()  # release the worker
            held = decode_line(await reader.readline())
            assert (held["id"], held["ok"], held["outcome"]) == (10, True, "quiescent")
            stats = await request(reader, writer, {"id": 20, "type": "stats"})
            assert stats["server"]["rejected_busy"] == n - 1
            assert stats["sessions"][sid]["rejected_busy"] == n - 1
            assert stats["sessions"][sid]["transactions"] == 1

        with_server(scenario, limits=limits)

    def test_loadgen_retries_a_busy_to_success(self):
        """loadgen's busy loop: the session's first transaction meets a
        full inbox (its worker held, one transaction parked); the busy
        reply releases the worker, and loadgen backs off and succeeds."""
        from repro.serve.loadgen import SessionRun, _run_session
        from repro.serve.traffic import build

        async def scenario(server, reader, writer):
            open_session, stage = server._handle_open, server._stage_transact

            def open_held(msg):
                resp = open_session(msg)
                session = server.sessions[resp["session"]]
                session._worker.cancel()
                session.submit([], max_cycles=0)  # the inbox is full
                return resp

            def stage_or_release(msg):
                try:
                    return stage(msg)
                except ProtocolError:
                    server.sessions[msg["session"]].start()
                    raise

            server._handle_open = open_held
            server._stage_transact = stage_or_release
            run = SessionRun(index=0, traffic=build("blocks", 0, 3, 0))
            await _run_session(server.host, server.port, run, {})
            return run

        run = with_server(
            scenario, limits=ServiceLimits(inbox_depth=1, retry_after_ms=1.0))
        assert run.errors == []
        assert run.busy_retries == 1
        assert sum(run.outcomes.values()) == 3


class TestShutdownDrain:
    def test_shutdown_completes_queued_transactions(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            session = server.sessions[sid]
            futs = [
                session.submit(
                    [WMOp.make("counter", {"n": 0, "limit": 1})], 0, None
                ),
                session.submit([], 50, None),
            ]
            await server.shutdown()
            assert all(f.done() for f in futs)
            assert (await futs[1]).outcome == "halted"
            assert server.sessions == {}

        with_server(scenario)


class TestOpenEngineOptionRules:
    """``open`` is outside input: every bad engine option is answered
    ``bad-request`` and the server keeps serving."""

    @pytest.mark.parametrize("extra, needle", [
        ({"engine": "warp"}, "unknown engine 'warp'"),
        ({"engine": "threaded", "policy": "fifo"}, "takes no policy field"),
        ({"policy": "affinity"}, "dispatch is fixed"),
        ({"engine": "threaded", "workers": 0}, "workers must be an integer in 1..16"),
        ({"engine": "threaded", "workers": 17}, "workers must be an integer in 1..16"),
        ({"engine": "threaded", "workers": "2"}, "workers must be an integer in 1..16"),
        ({"engine": "threaded", "workers": True}, "workers must be an integer in 1..16"),
    ])
    def test_rejected_and_server_stays_alive(self, extra, needle):
        async def scenario(server, reader, writer):
            resp = await open_counter(reader, writer, **extra)
            assert not resp["ok"]
            assert resp["error"]["code"] == "bad-request"
            assert needle in resp["error"]["message"]
            assert not server.sessions
            pong = await request(reader, writer, {"id": 2, "type": "ping"})
            assert pong["pong"]
            assert (await open_counter(reader, writer))["ok"]

        with_server(scenario)
