"""The asyncio production-rule server.

One TCP listener; line-delimited JSON requests (see :mod:`protocol`).
Each connection's read loop *stages* requests synchronously — parse,
validate, enqueue onto the target session's bounded inbox — then
finishes each response in its own task, so one connection can carry
many sessions concurrently while per-session transaction order is
preserved (staging happens in arrival order, before any await).

Shutdown is graceful: the listener closes, every session drains its
queued transactions, engines release, then connections close.  A
``shutdown`` request triggers the same path remotely, which is how the
CI smoke job stops the server it started.
"""

from __future__ import annotations

import argparse
import asyncio
import math
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from ..cli import Verb
from ..engines import check_engine_opts
from ..obs import context as obs_context
from ..obs import events as obs_events
from ..obs import meter as obs_meter
from ..obs import profile as obs_profile
from ..obs.export import prometheus_text
from ..ops5.errors import Ops5Error
from ..ops5.interpreter import TransactionError
from .limits import BudgetError, ServiceLimits
from .metrics import ServerMetrics
from .netcache import NetworkCache
from .protocol import (
    E_BAD_REQUEST,
    E_BUDGET,
    E_BUSY,
    E_INTERNAL,
    E_PARSE,
    E_SESSION_LIMIT,
    E_SHUTTING_DOWN,
    E_TXN,
    E_UNKNOWN_SESSION,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    firings_to_wire,
    ok_response,
    ops_from_wire,
)
from .session import Busy, Session, SessionCore


class ReproServer:
    """Hosts many sessions over shared compiled networks."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[ServiceLimits] = None,
        mode: str = "compiled",
        meter: bool = False,
        slo: Optional[list] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.limits = (limits or ServiceLimits()).validate()
        self.netcache = NetworkCache(mode=mode)
        self.metrics = ServerMetrics()
        self.sessions: Dict[str, Session] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._next_session = 1
        self._draining = False
        self._stop: Optional[asyncio.Event] = None
        self.meter_enabled = meter
        if meter:
            # Metering is process-global (the engines report into the
            # same module the sessions register with); a fresh epoch per
            # server keeps counters scoped to this server's lifetime.
            obs_meter.enable(slo)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port)."""
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` runs (locally or via request)."""
        assert self._stop is not None, "call start() first"
        await self._stop.wait()
        await self.shutdown()

    def request_shutdown(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop listening, drain every session, release engines."""
        if self._draining:
            return
        self._draining = True
        if self._stop is not None:
            self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self.sessions.values()):
            if drain:
                await session.drain()
            else:
                session.closing = True
                session.core.close()
            self.metrics.sessions_closed += 1
        self.sessions.clear()
        # Reap connection handlers: clients that already hung up finish
        # on their own; anything still parked on a read gets cancelled.
        if self._conn_tasks:
            _done, pending = await asyncio.wait(self._conn_tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def preload(self, source: str) -> str:
        """Warm the network cache with a program; returns its key."""
        entry, _cached = self.netcache.get(source)
        return entry.key

    # -- connection handling -----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break  # peer reset
                except ValueError:
                    # Over-long line: the stream cannot be resynchronised,
                    # so say why once and hang up.
                    await self._serve_one(None, writer, write_lock)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_one(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                # Yield so the staged request (everything up to its
                # first await) runs before the next line is read.
                await asyncio.sleep(0)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, line: Optional[bytes], writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        req_id: Any = None
        self.metrics.requests += 1
        try:
            if line is None:
                raise ProtocolError(
                    E_BAD_REQUEST, f"request line exceeds {MAX_LINE_BYTES} bytes"
                )
            msg = decode_line(line)
            req_id = msg.get("id")
            response = await self._dispatch(msg)
        except ProtocolError as exc:
            self.metrics.errors += 1
            response = error_response(
                req_id, exc.code, str(exc), retry_after_ms=exc.retry_after_ms
            )
        except Exception as exc:  # keep the server alive on engine bugs
            self.metrics.errors += 1
            response = error_response(req_id, E_INTERNAL, f"{type(exc).__name__}: {exc}")
        async with write_lock:
            try:
                writer.write(encode(response))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to tell it

    # -- request dispatch --------------------------------------------------

    async def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        req_id = msg.get("id")
        rtype = msg.get("type")
        if rtype == "transact":
            # Stage synchronously (ordering!), then await completion.
            start = perf_counter()
            obs_on = obs_events.ENABLED
            t0 = obs_events.now() if obs_on else 0
            fut, ctx = self._stage_transact(msg)
            try:
                result = await fut
            except BudgetError as exc:
                self.metrics.rejected_budget += 1
                raise ProtocolError(E_BUDGET, str(exc))
            except TransactionError as exc:
                raise ProtocolError(E_TXN, str(exc))
            finally:
                if obs_on:
                    # The serve-verb span: the root of the request's
                    # causal chain in a stitched trace, and groupable
                    # by session in Perfetto queries.
                    outcome = (
                        "error" if fut.cancelled() or fut.exception()
                        else fut.result().outcome
                    )
                    obs_events.span(
                        "serve", "transact", t0, obs_events.now(),
                        args=dict(ctx.ids(), outcome=outcome),
                    )
            self.metrics.cycles += result.cycles
            self.metrics.firings += len(result.firings)
            self.metrics.transactions += 1
            self.metrics.latency.record(perf_counter() - start)
            return ok_response(
                req_id,
                outcome=result.outcome,
                cycles=result.cycles,
                total_cycles=result.total_cycles,
                firings=firings_to_wire(result.firings),
                output=result.output,
                created=result.created,
                wm_size=result.wm_size,
            )
        if rtype == "open":
            return self._handle_open(msg)
        if rtype == "stats":
            return self._handle_stats(msg)
        if rtype == "profile":
            return self._handle_profile(msg)
        if rtype == "dump":
            return self._handle_dump(msg)
        if rtype == "meter":
            return self._handle_meter(msg)
        if rtype == "close":
            return await self._handle_close(msg)
        if rtype == "ping":
            return ok_response(req_id, pong=True)
        if rtype == "shutdown":
            self.request_shutdown()
            return ok_response(req_id, shutting_down=True)
        raise ProtocolError(E_BAD_REQUEST, f"unknown request type {rtype!r}")

    def _session_for(self, msg: Dict[str, Any]) -> Session:
        sid = msg.get("session")
        session = self.sessions.get(sid)
        if session is None or session.closing:
            raise ProtocolError(E_UNKNOWN_SESSION, f"no session {sid!r}")
        return session

    def _stage_transact(
        self, msg: Dict[str, Any]
    ) -> Tuple["asyncio.Future", obs_context.RequestContext]:
        if self._draining:
            raise ProtocolError(E_SHUTTING_DOWN, "server is draining")
        session = self._session_for(msg)
        ops = ops_from_wire(msg.get("ops"))
        max_cycles = msg.get("max_cycles")
        if max_cycles is not None and (
            isinstance(max_cycles, bool) or not isinstance(max_cycles, int)
        ):
            raise ProtocolError(E_BAD_REQUEST, "max_cycles must be an integer")
        deadline_ms = msg.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms)  # json.loads reads NaN, Infinity
        ):
            raise ProtocolError(E_BAD_REQUEST, "deadline_ms must be a finite number")
        # Every transact gets a request context; the session worker
        # activates it around the transaction so spans and meter
        # counters attribute to this request end to end.
        ctx = obs_context.new_request(
            session_id=session.session_id, tenant=session.core.tenant
        )
        try:
            return session.submit(ops, max_cycles, deadline_ms, ctx=ctx), ctx
        except Busy as exc:
            self.metrics.rejected_busy += 1
            raise ProtocolError(
                E_BUSY, str(exc), retry_after_ms=exc.retry_after_ms
            ) from None

    def _handle_open(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        req_id = msg.get("id")
        if self._draining:
            raise ProtocolError(E_SHUTTING_DOWN, "server is draining")
        source = msg.get("program")
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError(E_BAD_REQUEST, "open requires a program text")
        strategy = msg.get("strategy", "lex")
        if strategy not in ("lex", "mea"):
            raise ProtocolError(E_BAD_REQUEST, f"unknown strategy {strategy!r}")
        engine = msg.get("engine", "sequential")
        policy = msg.get("policy")
        try:
            check_engine_opts(engine, policy=policy)
        except ValueError as exc:
            raise ProtocolError(E_BAD_REQUEST, str(exc)) from None
        workers = msg.get("workers", 2)
        if (isinstance(workers, bool) or not isinstance(workers, int)
                or not 1 <= workers <= 16):
            raise ProtocolError(
                E_BAD_REQUEST, "workers must be an integer in 1..16"
            )
        tenant = msg.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(
                E_BAD_REQUEST, "tenant must be a non-empty string"
            )
        # Unused by the single-threaded engines (check_engine_opts has
        # already refused a policy there).
        engine_opts = {"n_workers": workers, "policy": policy}
        if len(self.sessions) >= self.limits.max_sessions:
            self.metrics.rejected_busy += 1
            raise ProtocolError(
                E_SESSION_LIMIT,
                f"session table full ({self.limits.max_sessions})",
                retry_after_ms=self.limits.retry_after_ms,
            )
        try:
            entry, cached = self.netcache.get(source)
        except Ops5Error as exc:
            raise ProtocolError(E_PARSE, str(exc)) from None
        sid = f"s{self._next_session}"
        self._next_session += 1
        core = SessionCore(
            sid, entry, limits=self.limits, strategy=strategy,
            engine=engine, engine_opts=engine_opts, tenant=tenant,
        )
        session = Session(core)
        session.start()
        self.sessions[sid] = session
        self.metrics.sessions_opened += 1
        return ok_response(req_id, session=sid, cached=cached, key=entry.key)

    async def _handle_close(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session_for(msg)
        self.sessions.pop(session.session_id, None)
        drained = await session.drain()
        self.metrics.sessions_closed += 1
        return ok_response(
            msg.get("id"), closed=session.session_id, drained=drained
        )

    def _handle_stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        req_id = msg.get("id")
        fmt = msg.get("format", "json")
        if fmt not in ("json", "prometheus"):
            raise ProtocolError(E_BAD_REQUEST, f"unknown stats format {fmt!r}")
        sid = msg.get("session")
        if sid is not None:
            session = self._session_for(msg)
            return ok_response(req_id, session=sid, stats=session.snapshot())
        if fmt == "prometheus":
            text = prometheus_text(
                self.metrics.snapshot(),
                sessions={
                    s.session_id: s.snapshot() for s in self.sessions.values()
                },
                netcache=self.netcache.stats(),
                obs={
                    "enabled": obs_events.enabled(),
                    "dropped_events": obs_events.dropped_total(),
                },
                meter=obs_meter.snapshot() if obs_meter.ENABLED else None,
            )
            return ok_response(req_id, format="prometheus", body=text)
        return ok_response(
            req_id,
            server=self.metrics.snapshot(),
            netcache=self.netcache.stats(),
            sessions={s.session_id: s.snapshot() for s in self.sessions.values()},
        )

    def _handle_dump(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Flight-recorder snapshot of this server process: the
        always-on ring of recent engine events (every session's engines
        feed it), for diagnosing a live server without restarting it
        with tracing on."""
        from ..obs import flight as obs_flight

        doc = obs_flight.snapshot("serve dump")
        return ok_response(
            msg.get("id"),
            flight=doc,
            obs_enabled=obs_events.enabled(),
            dropped_events=obs_events.dropped_total(),
        )

    def _handle_meter(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The metering snapshot: per-session and per-tenant counters,
        latency histograms with exemplars, and SLO burn rates
        (:func:`repro.obs.meter.snapshot`).  Answered even when
        metering is off — ``enabled: false`` with empty account maps —
        so scrapers need no capability probe."""
        return ok_response(
            msg.get("id"),
            enabled=obs_meter.ENABLED,
            meter=obs_meter.snapshot(),
        )

    def _handle_profile(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Live engine profiles: per-session match statistics, and —
        when :mod:`repro.obs` is enabled in this process — the global
        hot-spot profile built from the current event-bus snapshot."""
        req_id = msg.get("id")
        sid = msg.get("session")
        if sid is not None:
            session = self._session_for(msg)
            return ok_response(req_id, session=sid, profile=session.profile())
        payload: Dict[str, Any] = {
            "sessions": {
                s.session_id: s.profile() for s in self.sessions.values()
            },
            "netcache": self.netcache.stats(),
            "obs_enabled": obs_events.enabled(),
        }
        if obs_events.enabled():
            payload["obs"] = obs_profile.to_json(
                obs_profile.build(obs_events.snapshot())
            )
        return ok_response(req_id, **payload)


def _add_serve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    p.add_argument("--mode", choices=["compiled", "interpreted"], default="compiled")
    p.add_argument("--preload", action="append", default=[], metavar="FILE",
                   help="warm the network cache with a program file (repeatable)")
    p.add_argument("--max-sessions", type=int, default=256)
    p.add_argument("--inbox-depth", type=int, default=16)
    p.add_argument("--meter", action="store_true",
                   help="enable per-session/per-tenant resource metering "
                        "(the `meter` verb)")
    p.add_argument("--slo", action="append", default=[], metavar="NAME:TARGET_MS:GOAL",
                   help="SLO objective, e.g. txn_p99:250:0.99 (repeatable; "
                        "implies --meter)")


def _serve(args: argparse.Namespace) -> int:
    if not 0 <= args.port <= 65535:
        raise ValueError(f"invalid port {args.port}; expected 0-65535")
    preload_sources = []
    if args.preload:
        from .. import programs  # only then: plain start-up stays light

        preload_sources = [programs.read(path) for path in args.preload]
    limits = ServiceLimits(
        max_sessions=args.max_sessions, inbox_depth=args.inbox_depth
    ).validate()
    slo_objectives = [obs_meter.parse_objective(spec) for spec in args.slo]

    async def serve() -> None:
        server = ReproServer(
            host=args.host, port=args.port, limits=limits, mode=args.mode,
            meter=args.meter or bool(slo_objectives), slo=slo_objectives or None,
        )
        host, port = await server.start()
        try:
            for source in preload_sources:
                server.preload(source)
        except Ops5Error as exc:
            await server.shutdown()
            raise SystemExit(f"repro serve: preload failed: {exc}")
        print(f"repro serve: listening on {host}:{port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


VERBS = {"serve": Verb(
    "serve",
    "Host OPS5 sessions over a line-delimited JSON protocol: many concurrent "
    "working memories over shared compiled Rete networks, with batched WM "
    "transactions, backpressure, and cycle budgets (docs/SERVICE.md).",
    _add_serve_arguments, _serve,
)}
