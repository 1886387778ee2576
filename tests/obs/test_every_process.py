"""One bus across processes, held in place.

An ``ast`` scan in the style of ``tests/rete/test_kernel.py`` keeps the
decision *are there worker processes, and who holds what they saw*
behind ``repro.obs``: nobody outside it imports the ship, one function
renders a span, one function folds node aggregates, and a matcher has
no collector to hand around.  The behavioural half pins the answers
that were silently wrong while every consumer had to remember to fold
the workers in: the serve ``profile`` verb, the serve ``dump`` verb and
crash dumps, request arrows in a sequential serve trace, and what a
long-lived server keeps of the mp sessions it has closed.
"""

import ast
import asyncio
import json
import re
from pathlib import Path

import pytest

from repro.obs import events, fabric, flight
from repro.obs.export import validate_chrome_trace
from repro.parallel.mp import mp_supported
from repro.rete.matcher import Matcher
from repro.serve.loadgen import run_loadgen
from tests.serve.conftest import COUNTER, request, with_server

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

needs_mp = pytest.mark.skipif(
    not mp_supported(), reason="mp engine needs the 'fork' start method"
)


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


class TestStructure:
    def test_only_the_mp_engine_reaches_for_the_ship(self):
        importers = []
        for rel, tree in modules():
            package = ("repro." + rel[:-3].replace("/", ".")).split(".")[:-1]
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[:len(package) - node.level + 1] if node.level else []
                    module = ".".join(base + ([node.module] if node.module else []))
                    names = [module] + [f"{module}.{a.name}" for a in node.names]
                if any(n == "repro.obs.fabric" or n.startswith("repro.obs.fabric.")
                       for n in names):
                    importers.append(rel)
        outside = sorted({rel for rel in importers if not rel.startswith("obs/")})
        assert outside == ["parallel/mp/engine.py", "parallel/mp/worker.py"]

    def test_a_span_becomes_a_trace_event_in_one_module(self):
        builders = sorted({
            rel for rel, tree in modules() for node in ast.walk(tree)
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "ph"
                for key in node.keys)
        })
        assert builders == ["obs/export.py"]

    def test_node_aggregates_are_folded_in_one_function(self):
        """The fold is four ``have[i] += agg[i]`` in a row; it was
        written three times."""
        folds = []
        for rel, tree in modules():
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                adds = [
                    node for node in ast.walk(func)
                    if isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Subscript)
                    and isinstance(node.value, ast.Subscript)
                    and ast.dump(node.target.slice) == ast.dump(node.value.slice)
                    and isinstance(node.target.slice, ast.Constant)
                ]
                if len(adds) >= 4:
                    folds.append(f"{rel}:{func.name}")
        assert folds == ["obs/events.py:fold_nodes"]

    def test_what_was_deleted_stays_deleted(self):
        assert not hasattr(Matcher, "fabric")
        gone = re.compile(
            "FabricCollector|WorkerLane|merged_snapshot|merge_collectors|"
            "LANE_MAX_SPANS|retired_fabric|worker_tails|stitch_trace")
        forked = re.compile(r"obs_fabric|obs\.fabric|\.fabric\b|_fabric\b")
        hits = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if gone.search(line) or (
                    rel.startswith(("serve/", "rete/", "perf/")) and forked.search(line)
                ):
                    hits.append(f"{rel}:{lineno}: {line.strip()}")
        assert hits == []


def flow_events(doc):
    return [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]


def assert_each_flow_id_is_one_arrow(doc):
    ends = {}
    for event in flow_events(doc):
        ends.setdefault(event["id"], []).append(event["ph"])
    assert ends and all(sorted(phs) == ["f", "s"] for phs in ends.values())


class TestServeTraces:
    def loadgen_trace(self, tmp_path, **open_opts):
        path = tmp_path / "trace.json"
        report = asyncio.run(run_loadgen(
            scenario="blocks", sessions=3, transactions=4, spawn=True,
            trace_path=str(path), open_opts=open_opts,
        ))
        assert report.ok
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        return doc

    def test_sequential_sessions_get_their_request_arrows(self, tmp_path):
        """Arrows used to be drawn only where there were worker lanes
        to stitch: 12 serve spans carrying ``req`` ids, 0 arrows."""
        doc = self.loadgen_trace(tmp_path)
        serve = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "serve"]
        assert len(serve) == 12 and all("req" in e["args"] for e in serve)
        sources = {(e["tid"], e["ts"]) for e in flow_events(doc)
                   if e["ph"] == "s" and e["name"] == "request"}
        assert all((e["tid"], e["ts"]) in sources for e in serve)
        other = doc["otherData"]
        assert other["request_flows"] >= 12 and other["fabric_lanes"] == 0
        assert other["stitch_orphans"] == 0
        assert_each_flow_id_is_one_arrow(doc)
        assert {e["pid"] for e in doc["traceEvents"]} == {1}

    @needs_mp
    def test_three_mp_sessions_share_one_trace(self, tmp_path):
        doc = self.loadgen_trace(tmp_path, engine="mp", n_workers=2)
        worker_pids = {e["pid"] for e in doc["traceEvents"]} - {1}
        assert worker_pids == set(range(100, 106))
        other = doc["otherData"]
        assert other["fabric_lanes"] == 6 and other["stitch_orphans"] == 0
        assert other["request_flows"] >= 12
        assert_each_flow_id_is_one_arrow(doc)
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert len(names) == len(set(names)) == 7  # control + six workers


@needs_mp
class TestServeVerbsSeeTheWorkers:
    @staticmethod
    async def run_counter(reader, writer):
        resp = await request(reader, writer, {
            "id": 1, "type": "open", "program": COUNTER,
            "engine": "mp", "workers": 2})
        sid = resp["session"]
        resp = await request(reader, writer, {
            "id": 2, "type": "transact", "session": sid,
            "ops": [{"op": "make", "class": "counter",
                     "attrs": {"n": 0, "limit": 5}}]})
        assert resp["ok"] and resp["outcome"] == "halted"
        return sid

    def test_server_wide_profile_counts_the_match_processes(self, obs):
        """It reported ``total_activations`` 0 for an mp session whose
        own stats said 757."""
        async def scenario(server, reader, writer):
            sid = await self.run_counter(reader, writer)
            resp = await request(reader, writer, {"id": 3, "type": "profile"})
            counted = resp["sessions"][sid]["match"]["node_activations"]
            assert counted > 0
            assert resp["obs"]["total_activations"] == counted

        with_server(scenario)

    def test_dump_verb_and_crash_dumps_carry_worker_tails(self, tmp_path):
        flight.reset()

        async def scenario(server, reader, writer):
            await self.run_counter(reader, writer)
            resp = await request(reader, writer, {"id": 3, "type": "dump"})
            return resp["flight"]

        doc = with_server(scenario)
        assert flight.validate_flight(doc) == []
        assert sorted(name.split(" (pid ")[0] for name in doc["workers"]) == [
            "match-0", "match-1"]
        # Any later crash dump of this process has them too — the
        # session that received them is long closed.
        flight.set_dump_path(str(tmp_path / "crash.json"))
        try:
            assert flight.dump_on_error("unit") == str(tmp_path / "crash.json")
        finally:
            flight.set_dump_path(None)
        crash = json.loads((tmp_path / "crash.json").read_text())
        assert crash["workers"] == doc["workers"]
        flight.reset()


class TestWhatClosedSessionsLeaveBehind:
    @staticmethod
    def sizes(server):
        return {name: len(value) for name, value in vars(server).items()
                if isinstance(value, (list, dict, set))}

    @needs_mp
    def test_nothing_per_session_on_the_server(self):
        """``retired_fabric`` grew by one collector per closed mp
        session, bus on or off, and was never drained."""
        assert not events.ENABLED

        async def scenario(server, reader, writer):
            before = self.sizes(server)
            for i in range(3):
                resp = await request(reader, writer, {
                    "id": i, "type": "open", "program": COUNTER,
                    "engine": "mp", "workers": 2})
                resp = await request(reader, writer, {
                    "id": i, "type": "close", "session": resp["session"]})
                assert resp["ok"]
            assert self.sizes(server) == before
            assert "retired_fabric" not in vars(server)

        with_server(scenario)
        assert events.snapshot().workers == {}

    def test_a_constant_number_of_tails_whatever_the_number_of_sessions(self):
        """A hundred closed 2-worker sessions' worth of flush replies,
        filed where ``ProcessMatcher._flush`` files them."""
        assert not events.ENABLED
        flight.reset()
        event = {"t_ns": 1, "engine": "mp.worker", "event": "batch", "detail": None}
        for session in range(100):
            for wid in range(2):
                for seq in range(3):
                    fabric.file_ship(f"match-{wid}", {
                        "pid": 10_000 + 2 * session + wid, "spans": [],
                        "nodes": {}, "counters": {}, "dropped": 0,
                        "ship_dropped": 0, "flight": [dict(event, t_ns=seq)],
                    })
        tails = flight.remote_tails()
        assert len(tails) == flight.REMOTE_TAILS
        assert "match-1 (pid 10199)" in tails  # the most recent ones
        assert events.snapshot().workers == {}  # bus off: nothing filed
        assert len(flight.snapshot("unit")["workers"]) == flight.REMOTE_TAILS
        flight.reset()
