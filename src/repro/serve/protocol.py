"""The service wire format: line-delimited JSON over a byte stream.

One JSON object per UTF-8 line in each direction.  Every request
carries a client-chosen ``id`` which the response echoes, so clients
may pipeline requests on one connection (responses can arrive out of
order across *different* sessions; transactions within one session are
applied in arrival order).

Requests
--------

``{"id": .., "type": "open", "program": "<ops5 text>", "strategy"?: "lex"|"mea",
   "engine"?: "sequential"|"threaded"|"mp"|"corgi", "workers"?: int,
   "tenant"?: str}``
    Compile (or reuse from the network cache) and open a session.
    ``engine`` picks the match backend (default ``sequential``);
    ``workers`` (1..16, default 2) sizes the ``threaded``/``mp``
    engines and is ignored for ``sequential``/``corgi``.  Opening with
    ``engine: "mp"`` on a host without the ``fork`` start method is
    rejected with ``bad_request``.  ``tenant`` (non-empty string,
    default ``"default"``) labels the session for per-tenant metering
    and request-scoped tracing (:mod:`repro.obs.meter`).
    → ``{"ok": true, "session": "s1", "cached": bool, "key": "<hash>"}``

``{"id": .., "type": "transact", "session": .., "ops": [..],
   "max_cycles"?: int, "deadline_ms"?: number}``
    Apply a batched WM transaction atomically, then run up to
    ``max_cycles`` recognize-act cycles (0 = pure ingestion).  Ops:
    ``{"op": "make", "class": C, "attrs": {..}}``,
    ``{"op": "remove", "timetag": T}``,
    ``{"op": "modify", "timetag": T, "attrs": {..}}``.
    → ``{"ok": true, "outcome": "halted"|"quiescent"|"exhausted"|"deadline",
         "cycles": n, "total_cycles": n, "firings": [[cycle, prod, [tags..]]..],
         "output": [..], "created": [timetags..], "wm_size": n}``

``{"id": .., "type": "stats", "session"?: .., "format"?: "json"|"prometheus"}``
    A session's entry is its request counters, queue depth, WM size,
    program key, ``halted`` and ``cycle``, plus its match-engine
    statistics: ``match`` (tokens examined, the Table 4-1/4-2
    counters) and ``activations_by_kind``.  With ``session`` →
    ``{"ok": true, "session": .., "stats": {<entry>}}``.  Server-wide →
    ``{"ok": true, "server": {..}, "netcache": {..}, "sessions": {sid:
    <entry>}, "obs_enabled": bool, "obs"?: {..}, "meter": {..}}``:
    ``obs``, present while the :mod:`repro.obs` event bus is on in the
    server process, is the global hot-spot profile (hot
    nodes/productions/locks/phases); ``meter`` is the metering
    snapshot (``repro.meter/1``: per-session and per-tenant counters,
    latency histograms with exemplars, percentiles, SLO burn rates),
    on an unmetered server ``enabled: false`` with empty accounts.
    With ``"format": "prometheus"`` (server-wide only) the response is
    ``{"ok": true, "format": "prometheus", "body": "<exposition text>"}``
    — the counters rendered for a scraper; on a metered server
    the body additionally carries the ``repro_meter_*`` families
    (per-scope counters and per-tenant latency histograms with trace
    exemplars).

``{"id": .., "type": "dump"}``
    Flight-recorder snapshot of the server process — the always-on
    ring of recent engine events (see :mod:`repro.obs.flight`) — plus
    event-bus health.  → ``{"ok": true, "flight": {<repro.flight/2
    snapshot>}, "obs_enabled": bool, "dropped_events": n}``.  Cheap
    enough for a crash-time grab: no tracing needs to be enabled.

``{"id": .., "type": "close", "session": ..}``
    Drain the session's queued transactions, then release it.

``{"id": .., "type": "ping"}`` / ``{"id": .., "type": "shutdown"}``
    Liveness probe / graceful server drain-and-stop.

Errors
------

``{"id": .., "ok": false, "error": {"code": .., "message": ..,
   "retry_after_ms"?: number}}`` — ``retry_after_ms`` accompanies
``busy`` (a session inbox is full) and ``session-limit`` so clients
can back off and retry instead of tight-looping.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..ops5.interpreter import Firing, WMOp

#: Error codes.
E_BAD_REQUEST = "bad-request"
E_PARSE = "parse-error"
E_UNKNOWN_SESSION = "unknown-session"
E_BUSY = "busy"
E_SESSION_LIMIT = "session-limit"
E_BUDGET = "budget-exceeded"
E_TXN = "txn-rejected"
E_SHUTTING_DOWN = "shutting-down"
E_INTERNAL = "internal"

#: Stream limit for one request/response line.  Program sources travel
#: in ``open`` requests, so this must fit the biggest benchmark text.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: JSON types accepted as OPS5 constants in attribute values.
_CONST_TYPES = (str, int, float)


class ProtocolError(Exception):
    """A malformed or rejectable request, with its wire error code."""

    def __init__(
        self, code: str, message: str, retry_after_ms: Optional[float] = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_ms = retry_after_ms


def encode(msg: Dict[str, Any]) -> bytes:
    """One response/request as a compact JSON line."""
    return json.dumps(msg, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a request object."""
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(E_BAD_REQUEST, f"invalid JSON: {exc}")
    if not isinstance(msg, dict):
        raise ProtocolError(E_BAD_REQUEST, "request must be a JSON object")
    return msg


def ok_response(req_id: Any, **fields: Any) -> Dict[str, Any]:
    resp: Dict[str, Any] = {"id": req_id, "ok": True}
    resp.update(fields)
    return resp


def error_response(
    req_id: Any,
    code: str,
    message: str,
    retry_after_ms: Optional[float] = None,
) -> Dict[str, Any]:
    err: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        err["retry_after_ms"] = retry_after_ms
    return {"id": req_id, "ok": False, "error": err}


def _check_attrs(raw: Any, where: str) -> Dict[str, Any]:
    if not isinstance(raw, dict):
        raise ProtocolError(E_BAD_REQUEST, f"{where}: attrs must be an object")
    for attr, value in raw.items():
        if not isinstance(attr, str) or not attr:
            raise ProtocolError(E_BAD_REQUEST, f"{where}: bad attribute name")
        if isinstance(value, bool) or not isinstance(value, _CONST_TYPES):
            raise ProtocolError(
                E_BAD_REQUEST,
                f"{where}: attribute {attr!r} must be a string or number",
            )
    return raw


def ops_from_wire(raw: Any) -> List[WMOp]:
    """Validate and convert a request's ``ops`` list to :class:`WMOp`."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ProtocolError(E_BAD_REQUEST, "ops must be a list")
    ops: List[WMOp] = []
    for i, item in enumerate(raw):
        where = f"op {i}"
        if not isinstance(item, dict):
            raise ProtocolError(E_BAD_REQUEST, f"{where}: must be an object")
        kind = item.get("op")
        if kind == "make":
            klass = item.get("class")
            if not isinstance(klass, str) or not klass:
                raise ProtocolError(E_BAD_REQUEST, f"{where}: make requires a class")
            ops.append(WMOp.make(klass, _check_attrs(item.get("attrs", {}), where)))
        elif kind in ("remove", "modify"):
            timetag = item.get("timetag")
            if isinstance(timetag, bool) or not isinstance(timetag, int):
                raise ProtocolError(
                    E_BAD_REQUEST, f"{where}: {kind} requires an integer timetag"
                )
            if kind == "remove":
                ops.append(WMOp.remove(timetag))
            else:
                ops.append(
                    WMOp.modify(timetag, _check_attrs(item.get("attrs", {}), where))
                )
        else:
            raise ProtocolError(E_BAD_REQUEST, f"{where}: unknown op {kind!r}")
    return ops


def ops_to_wire(ops: List[WMOp]) -> List[Dict[str, Any]]:
    """The inverse of :func:`ops_from_wire` (used by the load generator)."""
    out: List[Dict[str, Any]] = []
    for op in ops:
        if op.op == "make":
            out.append({"op": "make", "class": op.klass, "attrs": dict(op.attrs)})
        elif op.op == "remove":
            out.append({"op": "remove", "timetag": op.timetag})
        else:
            out.append(
                {"op": "modify", "timetag": op.timetag, "attrs": dict(op.attrs)}
            )
    return out


def firings_to_wire(firings: List[Firing]) -> List[list]:
    """Firings as ``[cycle, production, [timetags..]]`` triples — the
    canonical form the loadgen compares byte-for-byte against replay."""
    return [[f.cycle, f.production, list(f.timetags)] for f in firings]
