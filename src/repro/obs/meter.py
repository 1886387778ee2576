"""Per-session / per-tenant resource metering with SLO tracking.

The bus (:mod:`repro.obs.events`) records *everything* and costs
memory proportional to event count; the meter records *aggregates* —
O(sessions + tenants) regardless of run length — which is what a
long-lived multi-tenant server can afford to keep always-on.  Every
quantity lands twice, under the owning session id and under its tenant
label, so fairness questions ("which tenant burned the match time?")
read straight off the snapshot.

Counters per account (all monotonic within a meter epoch):

========================  ====================================================
``match_s``               seconds inside ``Matcher.process_changes``
``select_s``              seconds inside conflict resolution
``act_s``                 seconds executing RHS actions
``firings``               productions fired
``wm_changes``            WM deltas pushed through the match network
``queue_wait_s``          engine task queue-wait + serve inbox wait
``ipc_bytes``             pickled bytes shipped over mp pipes (dispatch
                          payloads + flush replies), batch granularity
``txns``                  transactions completed (any outcome)
``rejected_busy``         transactions bounced by the bounded inbox
``rejected_budget``       transactions refused for an exhausted budget
``dropped_events``        obs-bus span drops attributed to this request
========================  ====================================================

Latency is tracked per account as a fixed-bucket **histogram**
(:data:`BUCKETS_MS`) carrying one exemplar per bucket — the last
``(value_ms, request_id, unix_time)`` that landed there, which is what
the Prometheus exposition renders as OpenMetrics trace exemplars — plus
a bounded ring of exact samples for nearest-rank percentiles.  Meter
transaction latency is **submit→done** (inbox queue-wait + execution),
so it reconciles with the client-observed latency loadgen reports; the
serve layer's own ``SessionCounters.latency`` remains execution-only.

**SLO objectives** (:class:`SLObjective`) declare "fraction ``goal`` of
transactions must finish under ``target_ms``".  The snapshot reports,
per account and objective, the achieved fraction and the **burn rate**
``violation_fraction / (1 - goal)`` — 1.0 means exactly spending the
error budget, >1 means burning it faster than allowed.

Like the bus, the meter is module-global with an ``ENABLED`` flag, and
only :mod:`repro.serve` reads it, once per transaction: the interpreter
and the match engines count into plain attributes of their own and know
nothing of sessions or tenants; ``SessionCore.transact`` bills the
difference a transaction made with one :func:`charge`.  In the server
every writer is therefore the event-loop thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

METER_SCHEMA = "repro.meter/1"

#: Histogram upper bounds in milliseconds (le); +Inf is implicit.
BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0
)

#: Exact-sample ring size per account for nearest-rank percentiles.
SAMPLE_CAPACITY = 4096

COUNTER_NAMES = (
    "match_s", "select_s", "act_s", "firings", "wm_changes",
    "queue_wait_s", "ipc_bytes", "txns",
    "rejected_busy", "rejected_budget", "dropped_events",
)


@dataclass(frozen=True)
class SLObjective:
    """``goal`` fraction of transactions must complete under ``target_ms``."""

    name: str
    target_ms: float
    goal: float  # e.g. 0.99

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "target_ms": self.target_ms,
                "goal": self.goal}


#: Default objective: matches the ROADMAP's interactive-serving bar.
DEFAULT_OBJECTIVES = (SLObjective("txn_p99", target_ms=250.0, goal=0.99),)


def nearest_rank(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence.

    ``p`` must lie in [0, 100]; p=0 returns the minimum (rank clamps to
    1) and p=100 the maximum.  The one percentile in the tree:
    :class:`SampleRing` (meter accounts, the serve ``LatencyWindow``)
    and the loadgen report all call it, so they never disagree.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without math
    return ordered[int(rank) - 1]


class SampleRing:
    """The most recent ``capacity`` samples, for nearest-rank percentiles
    — the one sample window in the tree (meter accounts hold
    milliseconds in it, the serve ``LatencyWindow`` seconds)."""

    __slots__ = ("capacity", "_samples", "_next")

    def __init__(self, capacity: int = SAMPLE_CAPACITY) -> None:
        self.capacity = capacity
        self._samples: List[float] = []
        self._next = 0

    def record(self, value: float) -> None:
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._samples)

    def percentiles(self, *ps: float) -> List[float]:
        """Nearest-rank percentiles (each ``p`` in [0, 100], else
        ``ValueError``) over the window, sorted once; 0.0 each while
        the window is empty."""
        ordered = sorted(self._samples) or [0.0]
        return [nearest_rank(ordered, p) for p in ps]


def count_under(buckets_ms: Sequence[float], counts: Sequence[int],
                target_ms: float) -> int:
    """How many histogram observations were <= ``target_ms``, resolved
    at bucket granularity (the tightest bucket bound <= target counts).
    ``counts`` are per-bucket; a trailing +Inf count is ignored."""
    return sum(c for le, c in zip(buckets_ms, counts) if le <= target_ms)


def slo_verdict(objective: SLObjective, total: int, good: int) -> Dict[str, Any]:
    """One objective's report — achieved fraction and burn rate — from
    ``good`` of ``total`` transactions under its target.  The one SLO
    arithmetic: live accounts and ``repro obs slo`` both call it."""
    achieved = (good / total) if total else 1.0
    violation = 1.0 - achieved
    budget = 1.0 - objective.goal
    burn = (violation / budget) if budget > 0 else (
        0.0 if violation == 0 else float("inf"))
    return {
        "objective": objective.to_json(),
        "total": total,
        "good": good,
        "achieved": achieved,
        "burn_rate": burn,
        "met": achieved >= objective.goal,
    }


class Histogram:
    """Fixed-bucket latency histogram with per-bucket exemplars."""

    __slots__ = ("counts", "inf_count", "sum_ms", "total", "exemplars")

    def __init__(self) -> None:
        self.counts = [0] * len(BUCKETS_MS)
        self.inf_count = 0
        self.sum_ms = 0.0
        self.total = 0
        # bucket index (len(BUCKETS_MS) == +Inf) -> (value_ms, request_id, unix)
        self.exemplars: Dict[int, Tuple[float, str, float]] = {}

    def observe(self, value_ms: float, request_id: str = "") -> None:
        self.sum_ms += value_ms
        self.total += 1
        idx = len(BUCKETS_MS)
        for i, le in enumerate(BUCKETS_MS):
            if value_ms <= le:
                idx = i
                break
        if idx == len(BUCKETS_MS):
            self.inf_count += 1
        else:
            self.counts[idx] += 1
        if request_id:
            self.exemplars[idx] = (value_ms, request_id, time.time())

    def cumulative(self) -> List[int]:
        """Cumulative counts per bucket (Prometheus ``le`` semantics),
        +Inf last — monotone non-decreasing by construction."""
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        out.append(acc + self.inf_count)
        return out

    def under_ms(self, target_ms: float) -> int:
        return count_under(BUCKETS_MS, self.counts, target_ms)

    def to_json(self) -> Dict[str, Any]:
        return {
            "buckets_ms": list(BUCKETS_MS),
            "counts": list(self.counts) + [self.inf_count],
            "sum_ms": self.sum_ms,
            "count": self.total,
            "exemplars": {
                str(i): {"value_ms": v, "request_id": r, "unix": t}
                for i, (v, r, t) in sorted(self.exemplars.items())
            },
        }


class MeterAccount:
    """Aggregates for one session or one tenant."""

    __slots__ = ("counters", "hist", "samples")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {n: 0 for n in COUNTER_NAMES}
        self.hist = Histogram()
        self.samples = SampleRing()

    def add(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe_txn(self, seconds: float, request_id: str = "") -> None:
        ms = seconds * 1e3
        self.counters["txns"] += 1
        self.hist.observe(ms, request_id)
        self.samples.record(ms)

    def percentiles(self) -> Dict[str, float]:
        """Nearest-rank p50/p95/p99 over the sample window (0.0 each
        while no transaction has been observed)."""
        p50, p95, p99 = self.samples.percentiles(50, 95, 99)
        return {"p50_ms": p50, "p95_ms": p95, "p99_ms": p99}

    def slo_report(self, objectives: Sequence[SLObjective]) -> List[Dict[str, Any]]:
        return [
            slo_verdict(obj, self.hist.total, self.hist.under_ms(obj.target_ms))
            for obj in objectives
        ]

    def to_json(self, objectives: Sequence[SLObjective]) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"counters": dict(self.counters)}
        doc.update(self.percentiles())
        doc["latency"] = self.hist.to_json()
        doc["slo"] = self.slo_report(objectives)
        return doc


class Meter:
    """Session + tenant account maps under one set of objectives."""

    def __init__(self, objectives: Sequence[SLObjective] = DEFAULT_OBJECTIVES):
        self.objectives: Tuple[SLObjective, ...] = tuple(objectives)
        self.sessions: Dict[str, MeterAccount] = {}
        self.tenants: Dict[str, MeterAccount] = {}
        self._session_tenant: Dict[str, str] = {}
        self._lock = threading.Lock()  # guards account-map insertion only

    def register_session(self, session_id: str, tenant: str) -> None:
        with self._lock:
            self._session_tenant[session_id] = tenant
            self.sessions.setdefault(session_id, MeterAccount())
            self.tenants.setdefault(tenant, MeterAccount())

    def _accounts(self, session_id: str, tenant: Optional[str]) -> Tuple[MeterAccount, ...]:
        if tenant is None:
            tenant = self._session_tenant.get(session_id, "default")
        s = self.sessions.get(session_id)
        t = self.tenants.get(tenant)
        if s is None or t is None:
            with self._lock:
                s = self.sessions.setdefault(session_id, MeterAccount())
                t = self.tenants.setdefault(tenant, MeterAccount())
                self._session_tenant.setdefault(session_id, tenant)
        return (s, t)

    def add(self, session_id: str, name: str, n: float = 1,
            tenant: Optional[str] = None) -> None:
        for acct in self._accounts(session_id, tenant):
            acct.add(name, n)

    def charge(self, session_id: str, amounts: Dict[str, float],
               tenant: Optional[str] = None) -> None:
        for acct in self._accounts(session_id, tenant):
            for name, n in amounts.items():
                if n:
                    acct.add(name, n)

    def observe_txn(self, session_id: str, seconds: float,
                    request_id: str = "", tenant: Optional[str] = None) -> None:
        for acct in self._accounts(session_id, tenant):
            acct.observe_txn(seconds, request_id)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": METER_SCHEMA,
            "objectives": [o.to_json() for o in self.objectives],
            "sessions": {
                sid: acct.to_json(self.objectives)
                for sid, acct in sorted(self.sessions.items())
            },
            "tenants": {
                ten: acct.to_json(self.objectives)
                for ten, acct in sorted(self.tenants.items())
            },
        }


# --------------------------------------------------------------------------
# Module-global meter, mirroring the events-bus enable/disable idiom.

ENABLED = False
_METER = Meter()


def enable(objectives: Optional[Sequence[SLObjective]] = None) -> None:
    """Turn metering on, starting a fresh epoch.  ``objectives``
    replaces the SLO set (default :data:`DEFAULT_OBJECTIVES`)."""
    global ENABLED, _METER
    _METER = Meter(tuple(objectives) if objectives is not None
                   else DEFAULT_OBJECTIVES)
    ENABLED = True


def disable() -> None:
    global ENABLED
    ENABLED = False


def reset() -> None:
    """Drop all accounts; keeps the enabled flag and objectives."""
    global _METER
    _METER = Meter(_METER.objectives)


def meter() -> Meter:
    return _METER


def register_session(session_id: str, tenant: str = "default") -> None:
    if ENABLED:
        _METER.register_session(session_id, tenant)


def add(session_id: str, name: str, n: float = 1,
        tenant: Optional[str] = None) -> None:
    """Bump one counter for a session (and its tenant).  Callers on hot
    paths must gate on :data:`ENABLED` themselves; this re-checks only
    as a safety net."""
    if ENABLED:
        _METER.add(session_id, name, n, tenant)


def charge(session_id: str, amounts: Dict[str, float],
           tenant: Optional[str] = None) -> None:
    """Bill one transaction's ``{counter: amount}`` (what the engine
    stack counted while it ran) with one account look-up."""
    if ENABLED:
        _METER.charge(session_id, amounts, tenant)


def txn(session_id: str, seconds: float, request_id: str = "",
        tenant: Optional[str] = None) -> None:
    """Record one completed transaction's submit→done latency."""
    if ENABLED:
        _METER.observe_txn(session_id, seconds, request_id, tenant)


def snapshot() -> Dict[str, Any]:
    doc = _METER.to_json()
    doc["enabled"] = ENABLED
    return doc


def parse_objective(spec: str) -> SLObjective:
    """Parse a CLI objective spec ``name:target_ms:goal``
    (e.g. ``txn_p99:250:0.99``)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"objective spec {spec!r} is not name:target_ms:goal")
    name, target_s, goal_s = parts
    target = float(target_s)
    goal = float(goal_s)
    if not name or target <= 0 or not (0.0 < goal < 1.0):
        raise ValueError(f"objective spec {spec!r} out of range")
    return SLObjective(name, target, goal)
