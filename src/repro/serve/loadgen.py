"""Concurrent load generator and sequential-replay verifier.

Opens N sessions (one connection each), replays each session's
deterministic traffic (see :mod:`traffic`) transaction by transaction,
honouring ``retry_after_ms`` backpressure, and measures client-side
throughput and latency percentiles.

With ``verify=True`` every session's concatenated firings (in wire
form) are compared **byte for byte** against a sequential replay of
the same transactions on a local :class:`~repro.serve.session.SessionCore`
— the service-level analogue of the parallel engine's "identical
conflict sets to sequential" check.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..cli import Verb
from ..engines import add_engine_arguments, engine_from_args
from ..obs import events as obs_events
from ..obs.export import write_chrome_trace
from .metrics import nearest_rank
from .netcache import NetworkCache
from .protocol import MAX_LINE_BYTES, decode_line, encode, firings_to_wire, ops_to_wire
from .server import ReproServer
from .session import SessionCore
from .traffic import SCENARIOS, Traffic, build, build_from_source

#: Give up on one transaction after this many busy retries.
MAX_BUSY_RETRIES = 100

#: Absolute slack between a tenant's meter p99 and its client p99; a
#: relative slack of half the client p99 applies when that is larger.
#: The client's latency adds the wire round trip and JSON on top of the
#: meter's submit→done.
RECONCILE_SLACK_MS = 25.0


@dataclass
class SessionRun:
    """Client-side record of one session's replay."""

    index: int
    session_id: str = ""
    tenant: str = "default"
    traffic: Optional[Traffic] = None
    firings: List[list] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    latencies: List[float] = field(default_factory=list)
    cycles: int = 0
    busy_retries: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    scenario: str
    sessions: int
    transactions: int  # per session
    wall_seconds: float = 0.0
    txns_ok: int = 0
    errors: int = 0
    busy_retries: int = 0
    outcomes: Counter = field(default_factory=Counter)
    total_cycles: int = 0
    total_firings: int = 0
    latency: Dict[str, float] = field(default_factory=dict)
    netcache: Dict[str, Any] = field(default_factory=dict)
    server: Dict[str, Any] = field(default_factory=dict)
    verified: Optional[bool] = None  # None = verification not requested
    mismatches: List[str] = field(default_factory=list)
    error_samples: List[str] = field(default_factory=list)
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)
    meter: Dict[str, Any] = field(default_factory=dict)
    prometheus: str = ""

    def reconciled(self) -> List[Tuple[bool, str]]:
        """One ``(agrees, line)`` per metered tenant this run drove: whether
        the meter's p99 lies within the reconcile slack of the client p99
        loadgen measured for that tenant, with each objective's burn rate.
        Other clients' tenants on a shared server are not this run's."""
        out = []
        for tenant, acct in sorted((self.meter.get("tenants") or {}).items()):
            if tenant not in self.tenants:
                continue
            meter_p99 = acct.get("p99_ms", 0.0)
            client_p99 = self.tenants[tenant]["p99_ms"]
            allowed = max(RECONCILE_SLACK_MS, 0.5 * client_p99)
            agrees = abs(meter_p99 - client_p99) <= allowed
            burns = "".join(
                f" {r['objective']['name']} burn={r['burn_rate']:.2f}x"
                f" ({r['good']}/{r['total']})" for r in acct.get("slo", [])
            )
            out.append((agrees, (
                f"{tenant}: meter p99={meter_p99:.2f}ms client "
                f"p99={client_p99:.2f}ms (slack {allowed:.2f}ms) — "
                f"{'OK' if agrees else 'FAIL'};{burns}"
            )))
        return out

    @property
    def ok(self) -> bool:
        return (self.errors == 0 and self.verified is not False
                and all(agrees for agrees, _line in self.reconciled()))

    def format(self) -> str:
        lines = [
            f"loadgen scenario={self.scenario} sessions={self.sessions} "
            f"txns/session={self.transactions} wall={self.wall_seconds:.2f}s",
            f"  transactions: {self.txns_ok} ok, {self.errors} errors, "
            f"{self.busy_retries} busy-retries",
            "  outcomes: "
            + (
                " ".join(f"{k}={v}" for k, v in sorted(self.outcomes.items()))
                or "(none)"
            ),
        ]
        wall = self.wall_seconds or 1e-9
        lines.append(
            f"  throughput: {self.txns_ok / wall:.0f} txn/s, "
            f"{self.total_cycles / wall:.0f} cycles/s, "
            f"{self.total_firings} firings total"
        )
        lat = self.latency
        if lat:
            lines.append(
                f"  latency ms: p50={lat['p50_ms']:.2f} p95={lat['p95_ms']:.2f} "
                f"p99={lat['p99_ms']:.2f} mean={lat['mean_ms']:.2f}"
            )
        else:
            # Zero completed transactions: say so explicitly instead of
            # printing fabricated percentiles.
            lines.append("  latency: no samples")
        if self.netcache:
            lines.append(
                f"  netcache: {self.netcache.get('entries', 0)} entries, "
                f"{self.netcache.get('hits', 0)} hits, "
                f"{self.netcache.get('misses', 0)} misses"
            )
        if len(self.tenants) > 1:
            lines.append("  tenants (client-side fairness):")
            for tenant in sorted(self.tenants):
                t = self.tenants[tenant]
                lines.append(
                    f"    {tenant}: txns={int(t['txns'])} "
                    f"share={t['share']:.2f} p50={t['p50_ms']:.2f}ms "
                    f"p95={t['p95_ms']:.2f}ms p99={t['p99_ms']:.2f}ms"
                )
        reconciled = self.reconciled()
        if reconciled:
            lines.append("  meter (server p99 vs client p99, SLO burn):")
            lines.extend(f"    {line}" for _agrees, line in reconciled)
        if self.verified is not None:
            if self.verified:
                lines.append(
                    f"  verify: {self.sessions}/{self.sessions} sessions "
                    "byte-identical to sequential replay"
                )
            else:
                lines.append("  verify: FAILED")
                lines.extend(f"    {m}" for m in self.mismatches[:5])
        for sample in self.error_samples[:5]:
            lines.append(f"  error: {sample}")
        return "\n".join(lines)


class _Client:
    """One connection speaking the line protocol, request at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self._next_id = 1

    @staticmethod
    async def connect(host: str, port: int) -> "_Client":
        # The server's own line limit: a reply (a ``dump`` carrying
        # worker tails, a large ``transact``) may pass asyncio's 64 KiB.
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
        return _Client(reader, writer)

    async def request(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        msg = dict(msg)
        msg["id"] = self._next_id
        self._next_id += 1
        self.writer.write(encode(msg))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _run_session(
    host: str,
    port: int,
    run: SessionRun,
    open_opts: Dict[str, Any],
) -> None:
    """Open one session and replay its traffic, sequentially."""
    traffic = run.traffic
    assert traffic is not None
    client = await _Client.connect(host, port)
    try:
        resp = await client.request({
            "type": "open",
            "program": traffic.program,
            "tenant": run.tenant,
            **open_opts,
        })
        if not resp.get("ok"):
            run.errors.append(f"open failed: {resp.get('error')}")
            return
        run.session_id = resp["session"]
        for t, txn in enumerate(traffic.txns):
            msg = {
                "type": "transact",
                "session": run.session_id,
                "ops": ops_to_wire(list(txn.ops)),
                "max_cycles": txn.max_cycles,
            }
            for _attempt in range(MAX_BUSY_RETRIES + 1):
                obs_on = obs_events.ENABLED
                if obs_on:
                    txn_t0 = obs_events.now()
                start = perf_counter()
                resp = await client.request(msg)
                if resp.get("ok"):
                    run.latencies.append(perf_counter() - start)
                    if obs_on:
                        obs_events.span(
                            "loadgen",
                            "txn",
                            txn_t0,
                            obs_events.now(),
                            args={"session": run.session_id, "txn": t,
                                  "outcome": resp["outcome"]},
                        )
                    run.firings.extend(resp["firings"])
                    run.outcomes[resp["outcome"]] += 1
                    run.cycles += resp["cycles"]
                    break
                err = resp.get("error", {})
                if err.get("code") == "busy":
                    run.busy_retries += 1
                    await asyncio.sleep(err.get("retry_after_ms", 50) / 1e3)
                    continue
                run.errors.append(f"txn {t}: {err.get('code')}: {err.get('message')}")
                break
            else:
                run.errors.append(f"txn {t}: still busy after {MAX_BUSY_RETRIES} retries")
        resp = await client.request({"type": "close", "session": run.session_id})
        if not resp.get("ok"):
            run.errors.append(f"close failed: {resp.get('error')}")
    except (ConnectionError, OSError) as exc:
        run.errors.append(f"connection error: {exc}")
    finally:
        await client.close()


def _replay_sequential(run: SessionRun, cache: NetworkCache) -> List[list]:
    """The same traffic, one session at a time, on a local core."""
    traffic = run.traffic
    assert traffic is not None
    entry, _cached = cache.get(traffic.program)
    core = SessionCore(f"replay-{run.index}", entry)
    fired: List[list] = []
    try:
        for txn in traffic.txns:
            result = core.transact(list(txn.ops), max_cycles=txn.max_cycles)
            fired.extend(firings_to_wire(result.firings))
    finally:
        core.close()
    return fired


def verify_runs(runs: List[SessionRun]) -> Tuple[bool, List[str]]:
    """Byte-compare each session's concurrent firings with sequential
    replay.  One fresh cache serves every replay, so the verification
    path itself exercises cross-session network sharing."""
    cache = NetworkCache()
    mismatches: List[str] = []
    for run in runs:
        expected = json.dumps(_replay_sequential(run, cache), separators=(",", ":"))
        actual = json.dumps(run.firings, separators=(",", ":"))
        if expected != actual:
            mismatches.append(
                f"session {run.index} ({run.session_id or '?'}): "
                f"{len(run.firings)} firings vs {expected.count('[') - 1} expected"
            )
    return not mismatches, mismatches


async def run_loadgen(
    scenario: str = "blocks",
    sessions: int = 20,
    transactions: int = 50,
    host: Optional[str] = None,
    port: Optional[int] = None,
    spawn: bool = False,
    verify: bool = False,
    seed: int = 0,
    program_source: Optional[str] = None,
    shutdown_after: bool = False,
    trace_path: Optional[str] = None,
    tenants: int = 1,
    open_opts: Optional[Dict[str, Any]] = None,
    meter: bool = False,
    meter_out: Optional[str] = None,
    prom_out: Optional[str] = None,
) -> LoadReport:
    """Drive a server with ``sessions`` concurrent replayed streams.

    ``spawn=True`` hosts a :class:`ReproServer` in-process on an
    ephemeral port (the CI- and test-friendly mode); otherwise
    ``host``/``port`` name a running server.  ``shutdown_after`` sends
    a ``shutdown`` request once the run (and stats scrape) is done.
    ``trace_path`` enables the :mod:`repro.obs` event bus for the run
    and writes a Chrome-trace JSON file when it finishes; with
    ``spawn=True`` the trace covers the in-process server's engines,
    not just the client side — and when sessions used the ``mp``
    engine, the file is the causally-stitched multi-process trace
    (control + worker lanes + request flow arrows).

    ``tenants`` partitions sessions round-robin into that many tenant
    labels (``t0..tN-1``); ``open_opts`` are extra fields of every
    session's ``open`` request (``engine``, ``workers``, ``strategy`` —
    the match backend each session runs on).
    ``meter=True`` enables
    :mod:`repro.obs.meter` on a spawned server; the snapshot (the
    ``meter`` of a ``stats`` reply) is scraped into ``report.meter``
    (and ``meter_out``/``prom_out`` write the JSON snapshot, with the
    client's summary under ``loadgen``, / the Prometheus exposition to
    files).
    """
    runs: List[SessionRun] = []
    for i in range(sessions):
        if program_source is not None:
            traffic = build_from_source(program_source, transactions)
        else:
            traffic = build(scenario, i, transactions, seed)
        tenant = f"t{i % tenants}" if tenants > 1 else "default"
        runs.append(SessionRun(index=i, tenant=tenant, traffic=traffic))

    server: Optional[ReproServer] = None
    if spawn:
        server = ReproServer(meter=meter)
        host, port = await server.start()
    assert host is not None and port is not None

    want_meter = meter or meter_out is not None or prom_out is not None
    meter_snap: Dict[str, Any] = {}
    prom_body = ""
    if trace_path is not None:
        obs_events.reset()
        obs_events.enable()
    started = perf_counter()
    try:
        await asyncio.gather(
            *(_run_session(host, port, run, open_opts or {}) for run in runs)
        )
        wall = perf_counter() - started

        stats: Dict[str, Any] = {}
        try:
            client = await _Client.connect(host, port)
            resp = await client.request({"type": "stats"})
            if resp.get("ok"):
                stats = resp
            if want_meter:
                meter_snap = stats.get("meter", {})
                resp = await client.request(
                    {"type": "stats", "format": "prometheus"}
                )
                if resp.get("ok"):
                    prom_body = resp.get("body", "")
            if shutdown_after:
                await client.request({"type": "shutdown"})
            await client.close()
        except (ConnectionError, OSError):
            pass
    finally:
        if server is not None:
            await server.shutdown()
        if trace_path is not None:
            write_chrome_trace(trace_path, obs_events.snapshot())
            obs_events.disable()

    report = LoadReport(
        scenario=scenario if program_source is None else "file",
        sessions=sessions,
        transactions=transactions,
        wall_seconds=wall,
    )
    latencies: List[float] = []
    for run in runs:
        report.txns_ok += sum(run.outcomes.values())
        report.errors += len(run.errors)
        report.error_samples.extend(run.errors)
        report.busy_retries += run.busy_retries
        report.outcomes.update(run.outcomes)
        report.total_cycles += run.cycles
        report.total_firings += len(run.firings)
        latencies.extend(run.latencies)
    if latencies:
        ordered = sorted(latencies)
        report.latency = {
            "p50_ms": nearest_rank(ordered, 50) * 1e3,
            "p95_ms": nearest_rank(ordered, 95) * 1e3,
            "p99_ms": nearest_rank(ordered, 99) * 1e3,
            "mean_ms": sum(ordered) / len(ordered) * 1e3,
        }
    report.netcache = stats.get("netcache", {})
    report.server = stats.get("server", {})
    report.tenants = _tenant_summary(runs, report.txns_ok)
    report.meter = meter_snap
    report.prometheus = prom_body
    if meter_out is not None:
        with open(meter_out, "w", encoding="utf-8") as fh:
            # The meter snapshot itself, with what the client measured.
            json.dump(
                dict(meter_snap, loadgen={
                    "latency": report.latency,
                    "tenants": report.tenants,
                    "wall_seconds": report.wall_seconds,
                }),
                fh,
                indent=2,
            )
    if prom_out is not None:
        with open(prom_out, "w", encoding="utf-8") as fh:
            fh.write(prom_body)
    if verify:
        report.verified, report.mismatches = verify_runs(runs)
    return report


def _tenant_summary(
    runs: List[SessionRun], txns_total: int
) -> Dict[str, Dict[str, float]]:
    """Client-observed fairness: per-tenant transaction counts, share
    of total throughput, and latency percentiles — the numbers the
    server-side meter must reconcile against."""
    by_tenant: Dict[str, List[float]] = {}
    for run in runs:
        by_tenant.setdefault(run.tenant, []).extend(run.latencies)
    out: Dict[str, Dict[str, float]] = {}
    for tenant, lats in by_tenant.items():
        ordered = sorted(lats)
        n = len(ordered)
        out[tenant] = {
            "txns": float(n),
            "share": n / txns_total if txns_total else 0.0,
            "p50_ms": nearest_rank(ordered, 50) * 1e3 if n else 0.0,
            "p95_ms": nearest_rank(ordered, 95) * 1e3 if n else 0.0,
            "p99_ms": nearest_rank(ordered, 99) * 1e3 if n else 0.0,
        }
    return out


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", default="mix", help=" | ".join(SCENARIOS))
    p.add_argument("--sessions", type=int, default=20)
    p.add_argument("--transactions", type=int, default=50,
                   help="transactions per session")
    p.add_argument("--connect", metavar="HOST:PORT", help="drive a running server")
    p.add_argument("--spawn", action="store_true",
                   help="host an in-process server on an ephemeral port")
    p.add_argument("--program", metavar="PROGRAM",
                   help="replay budgeted runs of this program (file or builtin "
                        "name) instead of a scenario")
    p.add_argument("--verify", action="store_true",
                   help="byte-compare firings with a sequential replay")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shutdown-after", action="store_true",
                   help="send a shutdown request when the run is done")
    p.add_argument("--trace-out", metavar="FILE",
                   help="enable the obs event bus for the run and write a Chrome-"
                        "trace JSON file (stitched across processes when sessions "
                        "use --engine mp)")
    p.add_argument("--tenants", type=int, default=1,
                   help="partition sessions round-robin into N tenant labels "
                        "t0..tN-1 (default 1 = all 'default')")
    p.add_argument("--meter", action="store_true",
                   help="enable metering on the spawned server, scrape the "
                        "snapshot into the report and reconcile its per-tenant "
                        "p99 with the client's")
    p.add_argument("--meter-out", metavar="FILE",
                   help="write the meter snapshot as JSON, with the client "
                        "latency summary under `loadgen`")
    p.add_argument("--prom-out", metavar="FILE",
                   help="write the server's Prometheus exposition here")
    add_engine_arguments(p)


def _open_opts(args: argparse.Namespace) -> Dict[str, Any]:
    """The engine flags as fields of the ``open`` request each session
    sends; the server builds its interpreter from them the way ``repro
    run`` does (``Interpreter(engine=, engine_opts=)``)."""
    engine, engine_opts = engine_from_args(args)
    open_opts = {"engine": engine, "strategy": args.strategy}
    if "n_workers" in engine_opts:
        open_opts["workers"] = engine_opts.pop("n_workers")
    if engine_opts:
        raise ValueError(
            f"engine options {', '.join(engine_opts)} do not travel over the "
            "serve protocol (an open request carries engine, workers and "
            "strategy)"
        )
    return open_opts


def _loadgen(args: argparse.Namespace) -> int:
    if args.scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {args.scenario!r}; "
            f"expected one of {', '.join(SCENARIOS)}"
        )
    if args.sessions < 1 or args.transactions < 1:
        raise ValueError("--sessions and --transactions must be positive")
    host = port = None
    if args.connect and args.spawn:
        raise ValueError("--connect and --spawn are exclusive")
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
        if not host or not 0 < port <= 65535:
            raise ValueError(f"bad --connect {args.connect!r}; expected HOST:PORT")
    elif not args.spawn:
        raise ValueError("need --connect HOST:PORT or --spawn")
    program_source = None
    if args.program:
        from .. import programs
        from ..ops5.parser import parse_program

        # Parsed here too, so a malformed file is one message up front
        # and not one failed ``open`` per session.
        program_source = programs.read(args.program)
        with programs.named_errors(args.program):
            parse_program(program_source)
    if args.tenants < 1:
        raise ValueError("--tenants must be positive")
    report = asyncio.run(
        run_loadgen(
            scenario=args.scenario,
            sessions=args.sessions,
            transactions=args.transactions,
            host=host,
            port=port,
            spawn=args.spawn,
            verify=args.verify,
            seed=args.seed,
            program_source=program_source,
            shutdown_after=args.shutdown_after,
            trace_path=args.trace_out,
            tenants=args.tenants,
            open_opts=_open_opts(args),
            meter=args.meter,
            meter_out=args.meter_out,
            prom_out=args.prom_out,
        )
    )
    print(report.format())
    return 0 if report.ok else 1


VERBS = {"loadgen": Verb(
    "loadgen",
    "Drive a server (--connect HOST:PORT, or in-process via --spawn) with N "
    "concurrent sessions replaying deterministic scenario traffic; print a "
    "throughput/latency report and, with --verify, byte-compare each session's "
    "firings against a sequential replay.  With --meter, each tenant's "
    "server-side p99 must reconcile with the client-observed p99 (within "
    "max(25 ms, half the client p99)); the report prints both with each "
    "SLO objective's burn rate.  Exit 1 on an error, a failed --verify or a "
    "failed reconcile.  Of the engine flags the serve protocol carries "
    "--engine, --workers and --strategy.",
    _add_arguments, _loadgen,
)}
