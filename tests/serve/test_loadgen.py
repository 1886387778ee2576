"""Load-generator tests, including the acceptance-scale concurrent run."""

import asyncio

import pytest

from repro.serve.loadgen import LoadReport, _Client, run_loadgen
from repro.serve.protocol import decode_line, encode
from repro.serve.traffic import SCENARIOS, build

from .conftest import COUNTER


class TestTraffic:
    def test_deterministic_per_tuple(self):
        a = build("blocks", 3, 8, seed=1)
        b = build("blocks", 3, 8, seed=1)
        assert a.program == b.program
        assert a.txns == b.txns

    def test_sessions_differ_but_share_program(self):
        a = build("tourney", 0, 8)
        b = build("tourney", 1, 8)
        assert a.program == b.program  # one netcache entry per scenario
        assert a.txns != b.txns

    @pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "mix"])
    def test_txn_counts_match_request(self, scenario):
        traffic = build(scenario, 2, 10)
        assert len(traffic.txns) == 10

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            build("bogus", 0, 4)


class TestLoadgen:
    def test_acceptance_twenty_sessions_verified(self):
        """The issue's acceptance demo: >= 20 concurrent sessions over
        the cached blocks/tourney networks, zero protocol errors, and
        byte-identical firings against sequential replay."""
        report = asyncio.run(
            run_loadgen(
                scenario="mix", sessions=20, transactions=10,
                spawn=True, verify=True,
            )
        )
        assert report.ok
        assert report.errors == 0
        assert report.verified is True
        assert report.txns_ok == 200
        # blocks + tourney compiled once each, reused 18 times total.
        assert report.netcache["entries"] == 2
        assert report.netcache["misses"] == 2
        assert report.netcache["hits"] == 18
        text = report.format()
        assert "verify: 20/20 sessions byte-identical" in text
        assert "latency ms:" in text
        assert "throughput:" in text

    def test_monkey_scenario_verified(self):
        report = asyncio.run(
            run_loadgen(
                scenario="monkey", sessions=3, transactions=8,
                spawn=True, verify=True, seed=5,
            )
        )
        assert report.ok and report.verified is True
        assert report.outcomes  # budget-0 ingestion + budgeted stepping

    def test_program_file_traffic(self):
        report = asyncio.run(
            run_loadgen(
                sessions=2, transactions=3, spawn=True, verify=True,
                program_source=COUNTER,
            )
        )
        assert report.ok and report.scenario == "file"

    def test_report_ok_logic(self):
        assert LoadReport("s", 1, 1).ok
        assert not LoadReport("s", 1, 1, errors=1).ok
        assert not LoadReport("s", 1, 1, verified=False).ok
        assert LoadReport("s", 1, 1, verified=True).ok

    def test_zero_transactions_reports_no_samples(self):
        """Zero completed transactions must yield an explicit "no
        samples" marker, not fabricated percentiles."""
        report = LoadReport("s", 2, 5)
        text = report.format()
        assert "latency: no samples" in text
        assert "p50" not in text
        assert report.latency == {}

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path):
        import json

        from repro.obs import events
        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "loadgen-trace.json"
        report = asyncio.run(
            run_loadgen(
                scenario="blocks", sessions=2, transactions=3,
                spawn=True, trace_path=str(path),
            )
        )
        assert report.ok
        assert events.enabled() is False  # bus switched off afterwards
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        names = {
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert "txn" in names  # client-side transaction spans
        assert "wm_change" in names  # in-process server engine spans

    def test_shutdown_after_stops_spawned_server(self):
        report = asyncio.run(
            run_loadgen(
                scenario="monkey", sessions=2, transactions=3,
                spawn=True, shutdown_after=True,
            )
        )
        assert report.ok


def test_client_reads_a_reply_longer_than_asyncio_default_line_limit():
    """asyncio's readline stops at 64 KiB; the server allows
    ``MAX_LINE_BYTES``, and so must the client (a ``dump`` with worker
    tails or a large ``transact`` reply passes 64 KiB)."""
    pad = "x" * (256 * 1024)

    async def reply_big(reader, writer):
        req = decode_line(await reader.readline())
        writer.write(encode({"id": req["id"], "ok": True, "pad": pad}))
        await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(reply_big, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await _Client.connect("127.0.0.1", port)
        try:
            return await client.request({"type": "stats"})
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    resp = asyncio.run(main())
    assert resp["ok"] and resp["pad"] == pad
