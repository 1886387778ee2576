"""Serve-layer metering: the ``meter`` verb, tenant labels on open,
and backpressure accounting landing in both the meter counters and the
Prometheus exposition (the bounced client saw ``retry_after_ms``; the
operator must see the same rejection server-side)."""

import asyncio

import pytest

from repro.obs import meter as obs_meter
from repro.obs.export import validate_prometheus
from repro.serve.limits import ServiceLimits
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.session import Busy

from .conftest import COUNTER, request


@pytest.fixture(autouse=True)
def fresh_meter():
    yield
    obs_meter.disable()
    obs_meter.reset()


def with_metered_server(coro_fn, limits=None, meter=True, slo=None):
    from repro.serve.server import ReproServer

    async def runner():
        server = ReproServer(limits=limits, meter=meter, slo=slo)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
        try:
            return await coro_fn(server, reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            await server.shutdown()

    return asyncio.run(runner())


async def open_counter(reader, writer, tenant="default"):
    resp = await request(
        reader, writer,
        {"id": 1, "type": "open", "program": COUNTER, "tenant": tenant},
    )
    assert resp["ok"], resp
    return resp


class TestMeterVerb:
    def test_meter_snapshot_after_transactions(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer, tenant="acme"))["session"]
            resp = await request(reader, writer, {
                "id": 2, "type": "transact", "session": sid,
                "ops": [{"op": "make", "class": "counter",
                         "attrs": {"n": 0, "limit": 3}}],
                "max_cycles": 50,
            })
            assert resp["ok"], resp
            resp = await request(reader, writer, {"id": 3, "type": "meter"})
            assert resp["ok"]
            assert resp["enabled"] is True
            snap = resp["meter"]
            assert snap["schema"] == obs_meter.METER_SCHEMA
            session = snap["sessions"][sid]
            tenant = snap["tenants"]["acme"]
            for acct in (session, tenant):
                assert acct["counters"]["txns"] == 1
                assert acct["counters"]["firings"] > 0
                assert acct["counters"]["wm_changes"] > 0
                assert acct["counters"]["match_s"] > 0
                assert acct["latency"]["count"] == 1
            assert session["counters"]["queue_wait_s"] >= 0

        with_metered_server(scenario)

    def test_txn_latency_covers_inbox_wait(self):
        """Meter latency is submit→done; a transaction queued behind a
        slow one must report latency at least the wait it endured."""

        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            session = server.sessions[sid]
            from repro.ops5.interpreter import WMOp

            slow = session.submit(
                [WMOp.make("counter", {"n": 0, "limit": 2000})], 500, None)
            fast = session.submit([], 0, None)
            await asyncio.gather(slow, fast)
            snap = obs_meter.snapshot()
            lat = snap["sessions"][sid]["latency"]
            assert lat["count"] == 2
            # The second txn's latency includes waiting for the first;
            # sum_ms must therefore exceed the pure-exec total of the
            # serve-layer latency window (exec-only).
            exec_ms = session.core.counters.latency.total_seconds * 1e3
            assert lat["sum_ms"] >= exec_ms * 0.9

        with_metered_server(scenario)

    def test_unmetered_server_answers_disabled(self):
        async def scenario(server, reader, writer):
            resp = await request(reader, writer, {"id": 1, "type": "meter"})
            assert resp["ok"]
            assert resp["enabled"] is False
            assert resp["meter"]["sessions"] == {}

        with_metered_server(scenario, meter=False)

    def test_custom_slo_objectives_in_snapshot(self):
        async def scenario(server, reader, writer):
            resp = await request(reader, writer, {"id": 1, "type": "meter"})
            assert resp["meter"]["objectives"] == [
                {"name": "fast", "target_ms": 5.0, "goal": 0.5}
            ]

        with_metered_server(
            scenario, slo=[obs_meter.SLObjective("fast", 5.0, 0.5)]
        )


class TestClosedSessions:
    def test_closed_session_accounts_are_bounded(self):
        """A long-lived metered server used to keep one account per
        session it ever hosted; closed ones beyond the retention
        constant are dropped, and the tenant account keeps the total."""
        cycles = 200

        async def scenario(server, reader, writer):
            for i in range(cycles):
                sid = (await open_counter(reader, writer, tenant="acme"))["session"]
                resp = await request(reader, writer, {
                    "id": 2, "type": "transact", "session": sid,
                    "ops": [{"op": "make", "class": "counter",
                             "attrs": {"n": 0, "limit": 1}}],
                    "max_cycles": 10,
                })
                assert resp["ok"], resp
                resp = await request(
                    reader, writer, {"id": 3, "type": "close", "session": sid})
                assert resp["ok"], resp
            return sid

        last = with_metered_server(scenario)
        snap = obs_meter.snapshot()
        assert len(snap["sessions"]) <= obs_meter.CLOSED_SESSIONS
        assert last in snap["sessions"]  # the most recently closed stay
        assert snap["tenants"]["acme"]["counters"]["txns"] == cycles


class TestTenantValidation:
    @pytest.mark.parametrize("tenant", ["", 7, None])
    def test_bad_tenant_rejected(self, tenant):
        async def scenario(server, reader, writer):
            resp = await request(
                reader, writer,
                {"id": 1, "type": "open", "program": COUNTER,
                 "tenant": tenant},
            )
            assert not resp["ok"]
            assert resp["error"]["code"] == "bad-request"

        with_metered_server(scenario)

    def test_tenant_defaults_when_absent(self):
        async def scenario(server, reader, writer):
            resp = await request(
                reader, writer,
                {"id": 1, "type": "open", "program": COUNTER},
            )
            assert resp["ok"]
            assert server.sessions[resp["session"]].core.tenant == "default"

        with_metered_server(scenario)


class TestBackpressureAccounting:
    def test_busy_rejections_counted_in_meter_and_prometheus(self):
        """A session hitting the bounded inbox gets ``retry_after_ms``
        on the wire — and the rejection must be visible server-side in
        the meter counters and the ``stats format=prometheus`` body."""

        async def scenario(server, reader, writer):
            resp = await open_counter(reader, writer, tenant="acme")
            sid = resp["session"]
            session = server.sessions[sid]
            busy = 0
            futs = []
            for _ in range(6):  # inbox_depth=2 -> 4 rejections
                try:
                    futs.append(session.submit([], max_cycles=0))
                except Busy:
                    busy += 1
            assert busy == 4
            await asyncio.gather(*futs)

            snap = obs_meter.snapshot()
            assert snap["sessions"][sid]["counters"]["rejected_busy"] == busy
            assert snap["tenants"]["acme"]["counters"]["rejected_busy"] == busy

            resp = await request(
                reader, writer,
                {"id": 9, "type": "stats", "format": "prometheus"},
            )
            assert resp["ok"]
            body = resp["body"]
            assert validate_prometheus(body) == []
            assert (
                f'repro_meter_rejected_busy_total{{scope="session",id="{sid}"}} '
                f"{busy}" in body
            )
            assert (
                'repro_meter_rejected_busy_total{scope="tenant",id="acme"} '
                f"{busy}" in body
            )

        with_metered_server(scenario, limits=ServiceLimits(inbox_depth=2))

    def test_budget_rejections_metered(self):
        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer))["session"]
            resp = await request(reader, writer, {
                "id": 2, "type": "transact", "session": sid,
                "ops": [], "max_cycles": 10 ** 9,
            })
            assert not resp["ok"]
            assert resp["error"]["code"] == "budget-exceeded"
            snap = obs_meter.snapshot()
            assert snap["sessions"][sid]["counters"]["rejected_budget"] == 1
            # The server-wide counter hears of it too: the `stats`
            # server block, the session's, and the exposition agree.
            resp = await request(reader, writer, {"id": 3, "type": "stats"})
            assert resp["server"]["rejected_budget"] == 1
            assert resp["sessions"][sid]["rejected_budget"] == 1
            resp = await request(
                reader, writer,
                {"id": 4, "type": "stats", "format": "prometheus"},
            )
            assert "\nrepro_rejected_budget_total 1\n" in resp["body"]
            assert (
                f'repro_session_rejected_budget_total{{session="{sid}"}} 1'
                in resp["body"]
            )

        with_metered_server(scenario)


class TestServeSpans:
    def test_transact_span_tagged_with_session_and_request(self):
        from repro.obs import events as obs_events

        async def scenario(server, reader, writer):
            sid = (await open_counter(reader, writer, tenant="t9"))["session"]
            resp = await request(reader, writer, {
                "id": 2, "type": "transact", "session": sid,
                "ops": [{"op": "make", "class": "counter",
                         "attrs": {"n": 0, "limit": 1}}],
                "max_cycles": 10,
            })
            assert resp["ok"]
            snap = obs_events.snapshot()
            serve_spans = snap.spans_by_cat("serve")
            assert serve_spans
            args = serve_spans[-1][4]
            assert args["session"] == sid
            assert args["tenant"] == "t9"
            assert args["req"].startswith("r")
            assert args["outcome"] == resp["outcome"]
            return sid

        obs_events.reset()
        obs_events.enable()
        try:
            with_metered_server(scenario)
        finally:
            obs_events.disable()
            obs_events.reset()
