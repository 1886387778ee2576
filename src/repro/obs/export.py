"""Exporters: Chrome-trace JSON and Prometheus-style text exposition.

``chrome_trace`` turns an :class:`~repro.obs.events.ObsSnapshot` into
the Trace Event Format consumed by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev) and is the only place a span becomes an
event: one timeline row per thread of this process on pid 1, one
process group per remote worker (the mp engine's match processes) on
pid ``100 + k``, complete duration events (``"ph": "X"``) with
microsecond timestamps, name metadata for every row, and flow arrows
wherever both ends of a causal link were recorded.
``validate_chrome_trace`` is the schema check the CI ``obs-smoke`` job
runs on exported files.

``prometheus_text`` renders the service layer's counters (server,
netcache, per-session) in the Prometheus exposition format, so a
scraper — or ``curl`` piped through the ``stats`` verb — sees standard
``# TYPE``-annotated families.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Tuple

from .events import ObsSnapshot

#: Required keys of a complete ("X") trace event.
_X_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")

#: Required keys of a flow ("s"/"f") event.
_FLOW_KEYS = ("name", "cat", "ph", "id", "ts", "pid", "tid")

#: Metadata event names we emit: per-thread labels everywhere, and
#: per-process labels in multi-process traces.
_META_NAMES = ("thread_name", "process_name")

#: Chrome-trace pid of the first remote worker (this process is pid 1).
WORKER_PID_BASE = 100


def _flow_end(cat: str, name: str, args: dict, t0: int, dur: int):
    """Which end of which arrow a span is: ``(is_source, key, ts_ns)``,
    key None for neither.  ``dispatch``: the control side's
    ``mp/dispatch`` span ends where the worker ``batch`` spans carrying
    its ``seq`` begin.  ``request``: a ``serve`` span begins every
    ``phase/match`` span of the request whose ``req`` it carries (from
    there the dispatch arrows, whose source spans nest inside the
    phase, reach the workers)."""
    if "seq" in args:
        if cat == "mp" and name == "dispatch":
            return True, ("dispatch", args["seq"]), t0 + dur
        if cat == "mp.worker" and name == "batch":
            return False, ("dispatch", args["seq"]), t0
    if "req" in args:
        if cat == "serve":
            return True, ("request", args["req"]), t0
        if cat == "phase" and name == "match":
            return False, ("request", args["req"]), t0
    return False, None, t0


def chrome_trace(snap: ObsSnapshot) -> Dict[str, Any]:
    """The snapshot as a Trace Event Format document (JSON object form).

    A ``batch`` span whose ``seq`` no recorded dispatch carries is a
    *stitch orphan*: counted, never linked, because a nonzero count
    means the causal story is incomplete.  ``otherData`` reports
    ``stitch_orphans``, ``request_flows`` and ``fabric_lanes`` whenever
    there was anything to stitch (a remote worker or an arrow source)."""
    events: List[Dict[str, Any]] = []
    local = sorted(name for name in snap.workers if name not in snap.remote)
    rows = [(1, tid, worker) for tid, worker in enumerate(local)]
    if snap.remote:
        events.append({"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                       "args": {"name": "control"}})
    for k, worker in enumerate(sorted(snap.remote)):
        pid = WORKER_PID_BASE + k
        rows.append((pid, 0, worker))
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": f"{worker} (pid {snap.remote[worker]})"}})
    sources: Dict[tuple, Tuple[int, int, float]] = {}
    targets: List[Tuple[tuple, int, int, float]] = []
    for pid, tid, worker in rows:
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                       "args": {"name": worker}})
        for t0, dur, cat, name, args in snap.workers[worker]:
            event: Dict[str, Any] = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": t0 / 1e3,  # ns -> us, the format's unit
                "dur": dur / 1e3,
                "pid": pid,
                "tid": tid,
            }
            if args:
                event["args"] = args
                is_source, key, ts = _flow_end(cat, name, args, t0, dur)
                if is_source:
                    sources[key] = (pid, tid, ts / 1e3)
                elif key is not None:
                    targets.append((key, pid, tid, ts / 1e3))
            events.append(event)
    flows = request_flows = orphans = 0
    for key, pid, tid, ts in targets:
        src = sources.get(key)
        if src is None:
            orphans += key[0] == "dispatch"
            continue
        flows += 1  # the flow id: one running counter per document
        request_flows += key[0] == "request"
        flow = {"name": key[0], "cat": "fabric", "id": flows}
        events.append({**flow, "ph": "s", "pid": src[0], "tid": src[1], "ts": src[2]})
        events.append({**flow, "ph": "f", "bp": "e", "pid": pid, "tid": tid, "ts": ts})
    other: Dict[str, Any] = {"producer": "repro.obs", "dropped_spans": snap.dropped}
    if snap.remote or sources:
        other.update(stitch_orphans=orphans, request_flows=request_flows,
                     fabric_lanes=len(snap.remote))
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_chrome_trace(path: str, snap: ObsSnapshot) -> int:
    """Serialize :func:`chrome_trace` to ``path``; returns event count."""
    doc = chrome_trace(snap)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a trace document; returns human-readable problems
    (empty list = valid).  Checks exactly what Perfetto needs to load
    the file: the ``traceEvents`` array, per-event required keys,
    numeric non-negative timestamps, and known phase codes."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not an array"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") not in _META_NAMES:
                problems.append(f"event {i}: unexpected metadata event")
            continue
        if ph in ("s", "f"):
            for key in _FLOW_KEYS:
                if key not in event:
                    problems.append(f"event {i}: missing {key!r}")
            value = event.get("ts")
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"event {i}: ts must be a non-negative number")
            if ph == "f" and event.get("bp") != "e":
                # Without binding-point "e" Perfetto attaches the arrow
                # to the *next* slice after ts, detaching it from the
                # worker batch span it belongs to.
                problems.append(f"event {i}: flow finish must carry bp='e'")
            continue
        if ph != "X":
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        for key in _X_KEYS:
            if key not in event:
                problems.append(f"event {i}: missing {key!r}")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"event {i}: {key} must be a non-negative number")
        for key in ("name", "cat"):
            if key in event and not isinstance(event[key], str):
                problems.append(f"event {i}: {key} must be a string")
    return problems


# -- Prometheus exposition ---------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_text(
    server: Dict[str, Any],
    sessions: Optional[Dict[str, Dict[str, Any]]] = None,
    netcache: Optional[Dict[str, Any]] = None,
    obs: Optional[Dict[str, Any]] = None,
    meter: Optional[Dict[str, Any]] = None,
) -> str:
    """Serve counters in the Prometheus text exposition format.

    ``server`` is a :meth:`~repro.serve.metrics.ServerMetrics.snapshot`,
    ``sessions`` a ``{sid: session snapshot}`` map, ``netcache`` a
    :meth:`~repro.serve.netcache.NetworkCache.stats` dict, and ``obs``
    event-bus health (``enabled`` flag plus the ``dropped_events``
    span-buffer-saturation count from
    :func:`repro.obs.events.dropped_total`).  ``meter`` is a
    :func:`repro.obs.meter.snapshot` document; its per-scope counters
    render as labelled counter families and its per-tenant latency
    histograms as ``repro_meter_txn_latency_ms`` buckets carrying
    OpenMetrics-style trace exemplars (``# {request_id="rN"} value ts``).
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    family("repro_uptime_seconds", "gauge", "Server uptime.")
    lines.append(f"repro_uptime_seconds {server.get('uptime_s', 0.0):.3f}")

    counter_fields = (
        ("requests", "Requests received."),
        ("errors", "Requests answered with an error."),
        ("connections", "Connections accepted."),
        ("sessions_opened", "Sessions opened."),
        ("sessions_closed", "Sessions closed."),
        ("rejected_busy", "Requests rejected for backpressure."),
        ("rejected_budget", "Requests rejected for budget caps."),
        ("transactions", "WM transactions applied."),
        ("cycles", "Recognize-act cycles executed."),
        ("firings", "Production firings."),
    )
    for fieldname, help_text in counter_fields:
        metric = f"repro_{fieldname}_total"
        family(metric, "counter", help_text)
        lines.append(f"{metric} {server.get(fieldname, 0)}")

    latency = server.get("latency") or {}
    family("repro_latency_ms", "summary", "Transaction latency (recent window).")
    for quantile in ("p50", "p95", "p99"):
        value = latency.get(f"{quantile}_ms")
        if value is not None:
            lines.append(
                f'repro_latency_ms{{quantile="{quantile}"}} {value:.4f}'
            )
    if latency.get("mean_ms") is not None:
        lines.append(f"repro_latency_mean_ms {latency['mean_ms']:.4f}")

    if netcache:
        family("repro_netcache_entries", "gauge", "Compiled networks cached.")
        lines.append(f"repro_netcache_entries {netcache.get('entries', 0)}")
        for fieldname in ("hits", "misses"):
            metric = f"repro_netcache_{fieldname}_total"
            family(metric, "counter", f"Network cache {fieldname}.")
            lines.append(f"{metric} {netcache.get(fieldname, 0)}")

    if obs is not None:
        family(
            "repro_obs_enabled", "gauge",
            "Whether the obs event bus is collecting (1) or idle (0).",
        )
        lines.append(f"repro_obs_enabled {1 if obs.get('enabled') else 0}")
        family(
            "repro_obs_dropped_events_total", "counter",
            "Spans dropped by the obs event-bus per-worker buffer caps.",
        )
        lines.append(
            f"repro_obs_dropped_events_total {obs.get('dropped_events', 0)}"
        )

    if sessions:
        session_fields = (
            "transactions", "cycles", "firings", "wm_ops", "errors",
            "rejected_busy", "rejected_budget",
        )
        for fieldname in session_fields:
            metric = f"repro_session_{fieldname}_total"
            family(metric, "counter", f"Per-session {fieldname}.")
            for sid, snap in sorted(sessions.items()):
                lines.append(
                    f'{metric}{{session="{_escape_label(sid)}"}} '
                    f"{snap.get(fieldname, 0)}"
                )
        family("repro_session_wm_size", "gauge", "Working-memory elements.")
        for sid, snap in sorted(sessions.items()):
            lines.append(
                f'repro_session_wm_size{{session="{_escape_label(sid)}"}} '
                f"{snap.get('wm_size', 0)}"
            )

    if meter:
        _append_meter(lines, family, meter)
    return "\n".join(lines) + "\n"


def _meter_metric_name(counter: str) -> str:
    if counter.endswith("_s"):
        return f"repro_meter_{counter[:-2]}_seconds_total"
    return f"repro_meter_{counter}_total"


def _append_meter(lines: List[str], family, meter: Dict[str, Any]) -> None:
    """Meter accounts as labelled families: one counter family per
    meter counter (scope=session|tenant), plus a per-tenant latency
    histogram with exemplars."""
    scopes = (("session", meter.get("sessions") or {}),
              ("tenant", meter.get("tenants") or {}))
    counter_names: List[str] = []
    for _scope, accounts in scopes:
        for acct in accounts.values():
            for name in (acct.get("counters") or {}):
                if name not in counter_names:
                    counter_names.append(name)
    for counter in sorted(counter_names):
        metric = _meter_metric_name(counter)
        family(metric, "counter", f"Metered {counter} per scope.")
        for scope, accounts in scopes:
            for key, acct in sorted(accounts.items()):
                value = (acct.get("counters") or {}).get(counter, 0)
                label = _escape_label(key)
                if isinstance(value, float):
                    lines.append(
                        f'{metric}{{scope="{scope}",id="{label}"}} {value:.6f}'
                    )
                else:
                    lines.append(
                        f'{metric}{{scope="{scope}",id="{label}"}} {value}'
                    )

    metric = "repro_meter_txn_latency_ms"
    family(metric, "histogram",
           "Per-tenant transaction latency (submit to done).")
    for tenant, acct in sorted((meter.get("tenants") or {}).items()):
        hist = acct.get("latency") or {}
        bounds = hist.get("buckets_ms") or []
        counts = hist.get("counts") or []
        exemplars = hist.get("exemplars") or {}
        label = _escape_label(tenant)
        acc = 0
        for i, le in enumerate(list(bounds) + ["+Inf"]):
            acc += counts[i] if i < len(counts) else 0
            le_str = "+Inf" if le == "+Inf" else f"{float(le):g}"
            line = f'{metric}_bucket{{tenant="{label}",le="{le_str}"}} {acc}'
            ex = exemplars.get(str(i))
            if ex:
                line += (
                    f' # {{request_id="{_escape_label(ex["request_id"])}"}}'
                    f' {ex["value_ms"]:.4f} {ex["unix"]:.3f}'
                )
            lines.append(line)
        lines.append(f'{metric}_sum{{tenant="{label}"}} '
                     f"{hist.get('sum_ms', 0.0):.4f}")
        lines.append(f'{metric}_count{{tenant="{label}"}} '
                     f"{hist.get('count', 0)}")


# -- Prometheus exposition validation ---------------------------------------

_METRIC_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s#]+)"
    r"(?P<rest>.*)$"
)

_EXEMPLAR_RE = re.compile(
    r"^ # \{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")"
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\}"
    r" -?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
    r"(?: \d+(?:\.\d+)?)?$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def _parse_labels(raw: Optional[str]) -> Dict[str, str]:
    return dict(_LABEL_RE.findall(raw)) if raw else {}


def validate_prometheus(text: str) -> List[str]:
    """Schema-check a Prometheus text exposition; returns problems
    (empty list = valid).

    Checks what a scraper needs: every sample line parses (name,
    optional labels, float value), exemplars are well-formed
    OpenMetrics ``# {labels} value [timestamp]`` suffixes attached only
    to histogram buckets, and each histogram series has monotone
    non-decreasing cumulative buckets ending in ``le="+Inf"`` whose
    count equals the series' ``_count`` sample.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    # (hist family, frozen non-le labels) -> list of (le, value) in order
    buckets: Dict[Tuple[str, frozenset], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, frozenset], float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) >= 4:
                types[parts[2]] = parts[3]
            else:
                problems.append(f"line {lineno}: malformed TYPE comment")
            continue
        if line.startswith("#"):
            continue
        m = _METRIC_LINE_RE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, raw_labels = m.group("name"), m.group("labels")
        rest = m.group("rest")
        try:
            value = float(m.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value")
            continue
        is_bucket = name.endswith("_bucket")
        if rest:
            if not is_bucket:
                problems.append(
                    f"line {lineno}: exemplar on non-bucket sample"
                )
            elif not _EXEMPLAR_RE.match(rest):
                problems.append(f"line {lineno}: malformed exemplar {rest!r}")
        labels = _parse_labels(raw_labels)
        base = name[:-len("_bucket")] if is_bucket else None
        if is_bucket:
            if types.get(base) != "histogram":
                problems.append(
                    f"line {lineno}: bucket for undeclared histogram {base!r}"
                )
            le = labels.pop("le", None)
            if le is None:
                problems.append(f"line {lineno}: bucket without 'le' label")
                continue
            le_f = float("inf") if le == "+Inf" else None
            if le_f is None:
                try:
                    le_f = float(le)
                except ValueError:
                    problems.append(f"line {lineno}: bad le={le!r}")
                    continue
            key = (base, frozenset(labels.items()))
            buckets.setdefault(key, []).append((le_f, value))
        elif name.endswith("_count") and types.get(name[:-6]) == "histogram":
            counts[(name[:-6], frozenset(labels.items()))] = value

    for (base, labelset), series in sorted(
        buckets.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
    ):
        label_desc = dict(labelset)
        prev_le, prev_v = None, None
        for le, v in series:
            if prev_le is not None and le <= prev_le:
                problems.append(
                    f"{base}{label_desc}: le values not increasing"
                )
            if prev_v is not None and v < prev_v:
                problems.append(
                    f"{base}{label_desc}: bucket counts not monotone"
                )
            prev_le, prev_v = le, v
        if prev_le != float("inf"):
            problems.append(f"{base}{label_desc}: missing le=\"+Inf\" bucket")
        have_count = counts.get((base, labelset))
        if have_count is not None and prev_v is not None and have_count != prev_v:
            problems.append(
                f"{base}{label_desc}: _count {have_count} != +Inf bucket {prev_v}"
            )
    return problems
