"""Sessions: one working memory each, over a shared compiled network.

:class:`SessionCore` is the synchronous engine wrapper — it owns an
:class:`~repro.ops5.interpreter.Interpreter` built on a cached network
and applies batched WM transactions under cycle/deadline budgets.  The
server, the load generator's sequential-replay verifier, and the
session-isolation property tests all drive the same core, which is
what makes "concurrent equals sequential" checkable.

:class:`Session` wraps a core for asyncio: a bounded inbox queue and a
single worker task that applies transactions strictly in arrival
order.  A full inbox rejects immediately with :class:`Busy` (carrying
``retry_after_ms``) — explicit backpressure instead of unbounded
buffering — and :meth:`Session.drain` finishes queued work before
releasing the engine, which is what makes server shutdown graceful.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import List, Optional, Sequence

from ..obs import context as _context
from ..obs import events as _events
from ..obs import meter as _meter
from ..ops5.interpreter import Firing, Interpreter, TransactionError, WMOp
from .limits import BudgetError, ServiceLimits
from .metrics import SessionCounters
from .netcache import CacheEntry


@dataclass
class TxnResult:
    """Outcome of one batched WM transaction."""

    outcome: str  # 'halted' | 'quiescent' | 'exhausted' | 'deadline'
    cycles: int  # cycles consumed by this transaction
    total_cycles: int  # session-lifetime cycle count
    firings: List[Firing] = field(default_factory=list)
    output: List[str] = field(default_factory=list)
    created: List[int] = field(default_factory=list)
    wm_size: int = 0


class Busy(Exception):
    """A session inbox is full; retry after ``retry_after_ms``."""

    def __init__(self, retry_after_ms: float) -> None:
        super().__init__(f"session busy; retry after {retry_after_ms:g} ms")
        self.retry_after_ms = retry_after_ms


class SessionCore:
    """The synchronous per-session engine over a cached network.

    Construction runs the program's ``(startup ...)`` actions, so the
    session is matched and ready before its first transaction.
    """

    def __init__(
        self,
        session_id: str,
        entry: CacheEntry,
        limits: Optional[ServiceLimits] = None,
        strategy: str = "lex",
        engine: str = "sequential",
        engine_opts: Optional[dict] = None,
        tenant: str = "default",
    ) -> None:
        self.session_id = session_id
        self.entry = entry
        self.limits = limits or ServiceLimits()
        self.counters = SessionCounters()
        self.engine = engine
        self.tenant = tenant
        _meter.register_session(session_id, tenant)
        self.interp = Interpreter(
            entry.program,
            strategy=strategy,
            network=entry.network,
            rhs_table=entry.rhs_table,
            engine=engine,
            engine_opts=engine_opts,
        )
        self.interp.startup()

    @property
    def wm_size(self) -> int:
        return len(self.interp.wm)

    def transact(
        self,
        ops: Sequence[WMOp],
        max_cycles: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> TxnResult:
        """Apply ``ops`` atomically, then run budgeted cycles.

        Raises :class:`BudgetError` (before touching anything) when the
        request asks beyond the server caps, and propagates
        :class:`~repro.ops5.interpreter.TransactionError` when the op
        batch fails validation — in both cases the session state is
        exactly as before the call.
        """
        counters = self.counters
        try:
            budget = self.limits.resolve_cycles(max_cycles)
            deadline = monotonic() + self.limits.resolve_deadline_ms(deadline_ms) / 1e3
            self.limits.check_ops_count(len(ops))
        except BudgetError:
            counters.rejected_budget += 1
            if _meter.ENABLED:
                _meter.add(self.session_id, "rejected_budget",
                           tenant=self.tenant)
            raise
        # The engines below only count; this is where the counts become
        # someone's bill: read the totals, run, charge the difference.
        interp = self.interp
        metered = interp.timed = _meter.ENABLED
        if metered:
            was = self._meter_reading()
        start = perf_counter()
        try:
            created = interp.apply_transaction(ops)
        except TransactionError:
            counters.errors += 1
            raise
        before = interp.cycle
        part = interp.run_cycles(budget, deadline=deadline)
        elapsed = perf_counter() - start
        if metered:
            now = self._meter_reading()
            _meter.charge(
                self.session_id, {name: now[name] - was[name] for name in now},
                tenant=self.tenant,
            )

        counters.transactions += 1
        counters.wm_ops += len(ops)
        counters.cycles += part.cycles - before
        counters.firings += len(part.firings)
        counters.outcomes[part.outcome] += 1
        counters.latency.record(elapsed)
        return TxnResult(
            outcome=part.outcome,
            cycles=part.cycles - before,
            total_cycles=part.cycles,
            firings=part.firings,
            output=part.output,
            created=created,
            wm_size=self.wm_size,
        )

    def _meter_reading(self) -> dict:
        """Running totals of everything a transaction is charged for,
        in meter units (obs-bus span drops included: they belong to the
        request running while they happened)."""
        interp = self.interp
        matcher = interp.matcher
        phase_ns = interp.phase_ns
        return {
            "match_s": phase_ns["match"] * 1e-9,
            "select_s": phase_ns["select"] * 1e-9,
            "act_s": phase_ns["act"] * 1e-9,
            "firings": interp.cycle,
            "wm_changes": matcher.stats.wme_changes,
            "queue_wait_s": matcher.queue_wait_ns * 1e-9,
            "ipc_bytes": matcher.ipc_bytes,
            "dropped_events": _events.dropped_total(),
        }

    def close(self) -> None:
        self.interp.close()
        _meter.retire_session(self.session_id)


#: Inbox sentinel asking the worker to finish and exit.
_CLOSE = object()


class Session:
    """Asyncio front for a :class:`SessionCore`.

    Transactions enter through :meth:`submit`, which either enqueues
    synchronously (order between two submits is the order of the calls)
    or raises :class:`Busy`.  One worker task consumes the inbox,
    yielding to the event loop between transactions so many sessions
    interleave fairly on one loop.
    """

    def __init__(self, core: SessionCore) -> None:
        self.core = core
        limits = core.limits
        self._inbox: asyncio.Queue = asyncio.Queue(maxsize=limits.inbox_depth)
        self._retry_after_ms = limits.retry_after_ms
        self._worker: Optional[asyncio.Task] = None
        self.closing = False

    @property
    def session_id(self) -> str:
        return self.core.session_id

    @property
    def queue_depth(self) -> int:
        return self._inbox.qsize()

    def start(self) -> None:
        self._worker = asyncio.get_running_loop().create_task(self._run())

    def submit(
        self,
        ops: Sequence[WMOp],
        max_cycles: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        ctx: Optional[_context.RequestContext] = None,
    ) -> "asyncio.Future[TxnResult]":
        """Enqueue one transaction; the future resolves when it ran.

        Never awaits before enqueueing, so callers that submit
        back-to-back get back-to-back execution order.  ``ctx`` is the
        request context the worker activates around the transaction
        (request-scoped spans, the meter's latency exemplar).
        """
        if self.closing or self._inbox.full():
            core = self.core
            core.counters.rejected_busy += 1
            if _meter.ENABLED:
                _meter.add(core.session_id, "rejected_busy",
                           tenant=core.tenant)
            raise Busy(self._retry_after_ms)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inbox.put_nowait(
            (perf_counter(), ctx, ops, max_cycles, deadline_ms, fut)
        )
        return fut

    async def _run(self) -> None:
        while True:
            item = await self._inbox.get()
            if item is _CLOSE:
                break
            t_submit, ctx, ops, max_cycles, deadline_ms, fut = item
            core = self.core
            meter_on = _meter.ENABLED
            if meter_on:
                # Inbox wait is part of what the client experiences;
                # account it separately from execution time.
                _meter.add(core.session_id, "queue_wait_s",
                           perf_counter() - t_submit, tenant=core.tenant)
            token = _context.activate(ctx) if ctx is not None else None
            try:
                result = core.transact(ops, max_cycles, deadline_ms)
            except BaseException as exc:  # delivered to the waiter
                if not fut.cancelled():
                    fut.set_exception(exc)
            else:
                if not fut.cancelled():
                    fut.set_result(result)
                if meter_on:
                    # Meter latency is submit→done (inbox wait + exec),
                    # the client-observed quantity loadgen reconciles
                    # against; SessionCounters.latency stays exec-only.
                    _meter.txn(
                        core.session_id, perf_counter() - t_submit,
                        request_id=ctx.request_id if ctx is not None else "",
                        tenant=core.tenant,
                    )
            finally:
                if token is not None:
                    _context.deactivate(token)
            # Fairness: let other sessions' workers run between txns.
            await asyncio.sleep(0)

    async def drain(self) -> int:
        """Refuse new work, finish queued transactions, release the
        engine.  Returns how many queued transactions were completed."""
        self.closing = True
        pending = self._inbox.qsize()
        if self._worker is not None:
            await self._inbox.put(_CLOSE)
            await self._worker
            self._worker = None
        self.core.close()
        return pending

    def snapshot(self) -> dict:
        """The session's ``stats`` entry: its request counters, and the
        match statistics the paper tables are built from."""
        core = self.core
        interp = core.interp
        stats = interp.matcher.stats
        snap = core.counters.snapshot()
        snap["queue_depth"] = self.queue_depth
        snap["wm_size"] = core.wm_size
        snap["program"] = core.entry.key[:12]
        snap["halted"] = interp.halted
        snap["cycle"] = interp.cycle
        snap["match"] = stats.summary()
        snap["activations_by_kind"] = dict(stats.activations_by_kind)
        return snap
