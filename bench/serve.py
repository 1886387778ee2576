"""The serve workload: a closed loop of short sessions against ``repro serve``.

The server is ``python -m repro serve --port 0`` in a subprocess; the
load generator is this process, one asyncio task per connection.  Each
connection replays its sessions back to back (open → transacts →
close) and sends the next request only when the reply to the previous
one has arrived — callers of a rule service wait for their firings, so
the loop is closed.  Every session's firings must be byte-identical to
a replay of the same traffic on a local sequential ``SessionCore``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.netcache import NetworkCache
from repro.serve.session import SessionCore
from repro.serve.traffic import Traffic

from measure import (HostSpeed, Measurement, Repetitions, keep, median,
                     percentile, sample_setup, sha256_lines, step_profile)

SRC = str(Path(__file__).resolve().parent.parent / "src")
#: Longest wait for the server to print its port, answer, or exit.
SERVER_WAIT_S = 30.0
MAX_BUSY_RETRIES = 100

SESSION = "serve.session"
OPEN = "serve.open"
TXN = "serve.txn"


class Server:
    """The ``repro serve`` subprocess; always reaped by ``stop``."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE,
        )
        try:
            ready, _w, _x = select.select([self.proc.stdout], [], [], SERVER_WAIT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"server did not come up: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            try:
                asyncio.run(asyncio.wait_for(self._shutdown(), SERVER_WAIT_S))
                proc.wait(timeout=SERVER_WAIT_S)
            except (OSError, RuntimeError, asyncio.TimeoutError,
                    subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
        proc.stdout.close()

    async def _shutdown(self) -> None:
        conn = await Connection.open(self.port)
        try:
            await conn.request({"type": "shutdown"})
        finally:
            await conn.close()


class Connection:
    """One client connection, one request in flight at a time."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.next_id = 1
        #: Request and reply lines, kept by a traced repetition only.
        self.lines: Optional[List[Tuple[bytes, bytes]]] = None

    @staticmethod
    async def open(port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
        )
        return Connection(reader, writer)

    async def request(self, msg: Dict[str, object]) -> Dict[str, object]:
        msg["id"] = self.next_id
        self.next_id += 1
        sent = protocol.encode(msg)
        self.writer.write(sent)
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        if self.lines is not None:
            self.lines.append((sent, line))
        return protocol.decode_line(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def first_open(source: str, speed: HostSpeed):
    """Spawn a server and open one session on it (a NetworkCache miss)."""
    t0 = perf_counter()
    server = Server()
    spawn_s = perf_counter() - t0
    speed.catch_up(spawn_s)
    t0 = perf_counter()
    try:
        asyncio.run(_open_close(server.port, source))
    except BaseException:
        server.stop()
        raise
    return server, (spawn_s, perf_counter() - t0)


async def _open_close(port: int, *sources: str) -> None:
    conn = await Connection.open(port)
    try:
        for source in sources:
            resp = await conn.request({"type": "open", "program": source})
            if not resp.get("ok"):
                raise RuntimeError(f"open failed: {resp.get('error')}")
            await conn.request({"type": "close", "session": resp["session"]})
    finally:
        await conn.close()


@dataclass
class Replay:
    """Client-side record of one repetition; seconds are at the
    reference host's speed once ``_replay`` returns (spans keep the
    wall-clock stamps)."""

    speed: HostSpeed = field(default_factory=HostSpeed)
    began: float = 0.0
    wall_s: float = 0.0
    #: session index -> its transaction latencies, in order.
    txn_s: Dict[int, List[float]] = field(default_factory=dict)
    open_s: List[float] = field(default_factory=list)
    firings: Dict[int, List[list]] = field(default_factory=dict)
    not_ok: Dict[int, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    busy_retries: int = 0
    spans: List[list] = field(default_factory=list)
    lines: List[Tuple[bytes, bytes]] = field(default_factory=list)


async def _replay_connection(port: int, sessions: Sequence[Tuple[int, Traffic]],
                             out: Replay, traced: bool) -> None:
    conn = await Connection.open(port)
    if traced:
        conn.lines = out.lines
    try:
        for index, traffic in sessions:
            out.firings[index] = fired = []
            out.txn_s[index] = latencies = []
            out.not_ok[index] = 0
            began = perf_counter()
            resp = await conn.request({"type": "open", "program": traffic.program})
            opened = perf_counter()
            if not resp.get("ok"):
                out.errors.append(f"session {index}: open: {resp.get('error')}")
                out.not_ok[index] = len(traffic.txns)
                continue
            out.open_s.append(opened - began)
            sid = resp["session"]
            if traced:
                out.spans.append([OPEN, began, opened, index, 1])
            for txn in traffic.txns:
                msg = {
                    "type": "transact", "session": sid,
                    "ops": protocol.ops_to_wire(list(txn.ops)),
                    "max_cycles": txn.max_cycles,
                }
                for _attempt in range(MAX_BUSY_RETRIES):
                    t0 = perf_counter()
                    resp = await conn.request(msg)
                    t1 = perf_counter()
                    error = resp.get("error") or {}
                    if error.get("code") != protocol.E_BUSY:
                        break
                    out.busy_retries += 1
                    await asyncio.sleep(error.get("retry_after_ms", 50) / 1e3)
                out.speed.catch_up(t1 - out.began)
                if resp.get("ok"):
                    latencies.append(t1 - t0)
                    fired.extend(resp["firings"])
                    if traced:
                        out.spans.append([TXN, t0, t1, index, 1])
                else:
                    out.not_ok[index] += 1
                    out.errors.append(f"session {index}: transact: {error}")
            await conn.request({"type": "close", "session": sid})
            if traced:
                out.spans.append([SESSION, began, perf_counter(), -1, 1])
    finally:
        await conn.close()


async def _replay(port: int, plan, out: Replay, traced: bool) -> None:
    out.began = perf_counter()
    await asyncio.gather(
        *(_replay_connection(port, sessions, out, traced) for sessions in plan)
    )
    factor = out.speed.factor
    out.wall_s = (perf_counter() - out.began) / factor
    out.txn_s = {i: [s / factor for s in v] for i, v in out.txn_s.items()}
    out.open_s = [s / factor for s in out.open_s]


def local_replay(traffics: Dict[int, Traffic]):
    """The same sessions on a local sequential ``SessionCore``.

    Returns ({session: firings in wire form}, per-transact seconds).
    """
    cache = NetworkCache()
    fired: Dict[int, List[list]] = {}
    transact_s: List[float] = []
    speed = HostSpeed()
    busy = 0.0
    for index, traffic in traffics.items():
        entry, _cached = cache.get(traffic.program)
        core = SessionCore(f"replay-{index}", entry)
        fired[index] = session_fired = []
        try:
            for txn in traffic.txns:
                ops = list(txn.ops)
                t0 = perf_counter()
                result = core.transact(ops, max_cycles=txn.max_cycles)
                transact_s.append(perf_counter() - t0)
                busy += transact_s[-1]
                speed.catch_up(busy)
                session_fired.extend(protocol.firings_to_wire(result.firings))
        finally:
            core.close()
    return fired, [s / speed.factor for s in transact_s]


def _wire(firings: List[list]) -> str:
    return json.dumps(firings, separators=(",", ":"))


def digest(fired: Dict[int, List[list]]) -> Dict[str, object]:
    """What the golden file pins about the replayed firings."""
    return {
        "sessions": len(fired),
        "firings": sum(len(f) for f in fired.values()),
        "firing_sha256": sha256_lines(_wire(fired[i]) for i in sorted(fired)),
    }


def measure(plan: Sequence[Sequence[Tuple[int, Traffic]]],
            expected: Optional[Dict[str, object]], seconds: float,
            trace: bool) -> Measurement:
    m = Measurement(rss_scopes=("children",))
    traffics = {index: t for sessions in plan for index, t in sessions}
    programs = sorted({t.program for t in traffics.values()})
    n_txns = sum(len(t.txns) for t in traffics.values())

    replayed, transact_s = local_replay(traffics)
    pinned = digest(replayed)
    if expected is not None and pinned != expected:
        m.attempted += n_txns
        m.fail(n_txns, f"local replay differs from golden: {pinned} != {expected}")

    m.setup, parts, server = sample_setup(
        lambda speed: first_open(programs[0], speed), lambda s: s.stop(), seconds
    )

    def rep(traced: bool) -> Replay:
        out = Replay()
        asyncio.run(_replay(server.port, plan, out, traced))
        m.attempted += n_txns
        for index, traffic in traffics.items():
            if _wire(out.firings.get(index, [])) != _wire(replayed[index]):
                m.fail(len(traffic.txns),
                       f"session {index}: firings differ from the local replay")
            elif out.not_ok[index]:
                m.fail(out.not_ok[index], out.errors[0])
        return out

    traced: List[Replay] = []
    traced_clean: List[bool] = []
    try:
        # Compile every program once so the timed sessions all hit the
        # network cache: the workload is the warm transaction path.
        asyncio.run(_open_close(server.port, *programs))
        reps = Repetitions(seconds)
        while True:
            out, clean = reps.run(lambda: rep(False))
            steps = [s for i in sorted(out.txn_s) for s in out.txn_s[i]]
            m.add(out.wall_s, steps, out.speed.factor, clean)
            if trace:
                out, clean = reps.run(lambda: rep(True))
                traced.append(out)
                traced_clean.append(clean)
            if reps.enough():
                break
    finally:
        server.stop()

    m.exact = {"txns": n_txns, "firings": pinned["firings"],
               "sessions": pinned["sessions"]}
    m.rates = {"txn_per_s": n_txns / m.run_s}
    if trace:
        traced = sorted(keep(traced, traced_clean), key=lambda r: r.wall_s)
        chosen = traced[(len(traced) - 1) // 2]
        m.spans = chosen.spans
        m.layers = layers(programs, parts, chosen, transact_s, pinned, m)
    return m


def layers(programs: List[str], parts, rep: Replay, transact_s: List[float],
           pinned: Dict[str, object], m: Measurement) -> Dict[str, float]:
    speed = HostSpeed()
    speed.burst(50)
    decode_s = 0.0
    encode_s = 0.0
    for sent, reply in rep.lines:
        t0 = perf_counter()
        protocol.ops_from_wire(protocol.decode_line(sent).get("ops"))
        decode_s += perf_counter() - t0
        response = protocol.decode_line(reply)
        t0 = perf_counter()
        protocol.encode(response)
        encode_s += perf_counter() - t0
    n_lines = max(1, len(rep.lines))

    misses: List[float] = []
    hits: List[float] = []
    for _ in range(5):
        cache = NetworkCache()
        for source in programs:
            t0 = perf_counter()
            cache.get(source)
            misses.append(perf_counter() - t0)
        for source in programs:
            t0 = perf_counter()
            cache.get(source)
            hits.append(perf_counter() - t0)
    speed.burst(50)
    factor = speed.factor

    txn_p50_ms = percentile(step_profile(m.kept(m.steps)), 50) * 1e3
    session_ms = median(transact_s) * 1e3
    decode_us = decode_s / n_lines / factor * 1e6
    encode_us = encode_s / n_lines / factor * 1e6
    return {
        "serve.protocol.decode_us": decode_us,
        "serve.protocol.encode_us": encode_us,
        "serve.netcache.miss_ms": median(misses) / factor * 1e3,
        "serve.netcache.hit_ms": median(hits) / factor * 1e3,
        "serve.open_hit_ms": median(rep.open_s) * 1e3,
        "serve.session.transact_ms": session_ms,
        "serve.session.firings": pinned["firings"],
        "serve.server.residual_ms": (
            txn_p50_ms - session_ms - (decode_us + encode_us) / 1e3
        ),
        "serve.server.busy_retries": rep.busy_retries,
        "serve.server.spawn_s": median([p[0] for p in parts]),
        "serve.open_miss_ms": median([p[1] for p in parts]) * 1e3,
        "bench.host_speed_x": median(m.kept(m.speed)),
        "bench.traced_run_s": rep.wall_s,
        "bench.trace_overhead_x": rep.wall_s / m.run_s,
    }
