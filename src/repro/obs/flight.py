"""The flight recorder: an always-on black box of recent engine events.

The structured event bus (:mod:`repro.obs.events`) is opt-in and
unbounded-in-detail — great for a deliberate capture, useless for the
crash you did not predict.  The flight recorder is the complement: a
**fixed-size ring** of coarse, recent events (batch boundaries, worker
lifecycle, watchdog trips, errors) that every engine feeds
unconditionally, because one ``perf_counter_ns`` call plus one
``deque.append`` per *batch* (never per token or per task) is cheap
enough to leave enabled in production.

The ring is per *process* — forked mp workers inherit a copy and then
diverge; each of a worker's replies carries the events it recorded
since the last one (:func:`unshipped`, bus on or off), and the control
process keeps each worker's latest tail (:func:`keep_remote_tail`), for
the :data:`REMOTE_TAILS` workers heard from most recently.  That store
belongs to this module, not to an engine or a session, so every
snapshot carries it under ``workers`` —
one written after the failed matcher has already closed included — and
a dead worker's last moments survive it.

Snapshots are schema-versioned JSON (:data:`FLIGHT_SCHEMA`) and are
produced three ways:

* at the end of a run — ``repro run --flight-dump FILE`` — and on
  demand from a live server — the serve ``dump`` verb;
* on unhandled engine error — when a dump path is configured
  (:func:`set_dump_path`, which ``--flight-dump`` calls), the
  interpreter writes the snapshot before re-raising;
* on watchdog trip — the watchdog files its stall here
  (:func:`file_stall`); with a dump path set the snapshot is written at
  once, and every later snapshot carries the stall under ``stall``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict, deque
from time import perf_counter_ns, time
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Schema identifier stamped into every snapshot; bump on breaking
#: changes to the snapshot layout.  /2 added the ``engines`` metadata
#: map (engine name -> worker count) so crash dumps from mixed-engine
#: serve deployments are self-identifying.
FLIGHT_SCHEMA = "repro.flight/2"

#: Default ring capacity — sized so a stuck engine still shows several
#: complete recognize-act cycles of context, while the ring itself
#: stays a few tens of KB.
DEFAULT_RING_SIZE = 256

#: Remote workers whose last-known tail is kept (the most recently
#: heard from win): what closed mp sessions leave behind is bounded by
#: this constant, not by how many a long-lived server has hosted.
REMOTE_TAILS = 32

_EVENT = Tuple[int, str, str, Optional[dict]]

_ring: Deque[_EVENT] = deque(maxlen=DEFAULT_RING_SIZE)
_recorded_total = 0
# _recorded_total as of the last unshipped() call.
_shipped_total = 0
_dump_path: Optional[str] = None
# Engines that have run in this process (name -> last-seen worker
# count; sequential engines register 1).  Process identity, not run
# history: configure()/reset() leave it alone so a snapshot taken
# after a ring resize still names the engines that fed it.
_engines: Dict[str, int] = {}
# OS pid -> (display name, last shipped tail), least recently heard first.
_remote_tails: "OrderedDict[int, Tuple[str, List[dict]]]" = OrderedDict()
# The watchdog's most recent stall (repro.obs.watchdog), if any.
_stall: Optional[Dict[str, Any]] = None
# Serializes snapshot/configure against concurrent recorders; record()
# itself stays lock-free (deque.append is atomic under the GIL).
_snap_lock = threading.Lock()


def configure(capacity: int = DEFAULT_RING_SIZE) -> None:
    """Resize the ring (drops current contents)."""
    global _ring
    if capacity < 1:
        raise ValueError("flight ring capacity must be >= 1")
    with _snap_lock:
        _ring = deque(maxlen=capacity)
    reset()


def reset() -> None:
    """Empty the ring (and the worker tails and the stall) without
    changing its capacity."""
    global _recorded_total, _shipped_total, _stall
    with _snap_lock:
        _ring.clear()
        _recorded_total = _shipped_total = 0
        _remote_tails.clear()
        _stall = None


def note_engine(name: str, workers: int = 1) -> None:
    """Register an engine running in this process for snapshot
    metadata.  Called once per matcher construction — last worker
    count per engine name wins."""
    _engines[name] = int(workers)


def record(engine: str, event: str, detail: Optional[dict] = None) -> None:
    """Append one event.  Always on; callers must keep this at batch /
    lifecycle granularity (never per token) so the cost stays one
    clock read and one bounded append."""
    global _recorded_total
    _recorded_total += 1
    _ring.append((perf_counter_ns(), engine, event, detail))


def tail(n: Optional[int] = None) -> List[Dict[str, Any]]:
    """The most recent ``n`` events (all, if None), oldest first,
    JSON-ready."""
    with _snap_lock:
        events = list(_ring)
    if n is not None and n >= 0:
        events = events[max(len(events) - n, 0):]  # [-0:] would be all
    return [
        {"t_ns": t, "engine": engine, "event": event, "detail": detail}
        for t, engine, event, detail in events
    ]


def unshipped(n: int) -> List[Dict[str, Any]]:
    """The events recorded since the last call (at most the latest
    ``n``), oldest first: what a worker's next reply ships."""
    global _shipped_total
    new = _recorded_total - _shipped_total
    _shipped_total = _recorded_total
    return tail(min(new, n)) if new else []


def keep_remote_tail(pid: int, name: str, tail: List[dict]) -> None:
    """Remember the flight tail worker process ``pid`` just shipped.  An
    empty tail leaves the last-known one alone."""
    if not tail:
        return
    with _snap_lock:
        _remote_tails[pid] = (name, tail)
        _remote_tails.move_to_end(pid)
        while len(_remote_tails) > REMOTE_TAILS:
            _remote_tails.popitem(last=False)


def remote_tail(pid: int) -> List[dict]:
    """The last tail worker process ``pid`` shipped ([] if none is kept)."""
    with _snap_lock:
        kept = _remote_tails.get(pid)
    return list(kept[1]) if kept else []


def remote_tails() -> Dict[str, List[dict]]:
    """Every kept tail, keyed ``"<name> (pid <pid>)"``."""
    with _snap_lock:
        return {
            f"{name} (pid {pid})": list(tail)
            for pid, (name, tail) in _remote_tails.items()
        }


def file_stall(stall: Dict[str, Any]) -> None:
    """Keep the watchdog's latest stall for every later snapshot, and
    write one at once to the dump path, if one is set."""
    global _stall
    _stall = stall
    dump_on_error("stall")


def snapshot(reason: str) -> Dict[str, Any]:
    """The ring as a schema-versioned JSON document, with the kept
    worker tails (if any) under ``workers`` and the watchdog's latest
    stall (if any) under ``stall``."""
    doc: Dict[str, Any] = {
        "schema": FLIGHT_SCHEMA,
        "reason": reason,
        "pid": os.getpid(),
        "process": "control",
        "captured_unix": time(),
        "ring_capacity": _ring.maxlen,
        "recorded_total": _recorded_total,
        "engines": dict(_engines),
        "events": tail(),
    }
    workers = remote_tails()
    if workers:
        doc["workers"] = workers
    if _stall is not None:
        doc["stall"] = _stall
    return doc


def write_snapshot(path: str, reason: str) -> Dict[str, Any]:
    """Serialize :func:`snapshot` to ``path``; returns the document."""
    doc = snapshot(reason)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return doc


# -- crash dumps -------------------------------------------------------------


def set_dump_path(path: Optional[str]) -> None:
    """Configure (or clear, with None) the on-error dump destination."""
    global _dump_path
    _dump_path = path


def dump_on_error(reason: str) -> Optional[str]:
    """Write a snapshot to the configured dump path, if any.

    Returns the path written, or None when no path is configured.
    Never raises: this runs on the unhandled-error path, where a
    secondary failure must not mask the original exception.
    """
    path = _dump_path
    if not path:
        return None
    try:
        write_snapshot(path, reason)
    except OSError:  # pragma: no cover - disk full / bad path
        return None
    return path


# -- schema validation -------------------------------------------------------


def _check_events(events: Any, where: str, problems: List[str]) -> None:
    if not isinstance(events, list):
        problems.append(f"{where} is not an array")
        return
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"{where}[{i}]: not an object")
            continue
        for key, types in (("t_ns", (int,)), ("engine", (str,)), ("event", (str,))):
            if not isinstance(event.get(key), types):
                problems.append(f"{where}[{i}]: bad {key!r}")
        detail = event.get("detail")
        if detail is not None and not isinstance(detail, dict):
            problems.append(f"{where}[{i}]: detail must be an object or null")


def validate_flight(doc: Any) -> List[str]:
    """Schema-check a flight snapshot; returns human-readable problems
    (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != FLIGHT_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {FLIGHT_SCHEMA!r}"
        )
    for key, types in (
        ("reason", (str,)),
        ("pid", (int,)),
        ("ring_capacity", (int,)),
        ("recorded_total", (int,)),
        ("captured_unix", (int, float)),
    ):
        if not isinstance(doc.get(key), types):
            problems.append(f"missing or bad {key!r}")
    engines_meta = doc.get("engines")
    if not isinstance(engines_meta, dict):
        problems.append("missing or bad 'engines'")
    else:
        for name, count in engines_meta.items():
            if not isinstance(name, str) or not isinstance(count, int):
                problems.append(f"engines[{name!r}]: name->count must be str->int")
    _check_events(doc.get("events"), "events", problems)
    workers = doc.get("workers")
    if workers is not None:
        if not isinstance(workers, dict):
            problems.append("workers is not an object")
        else:
            for name, events in workers.items():
                _check_events(events, f"workers[{name}]", problems)
    if "stall" in doc:
        _check_stall(doc["stall"], problems)
    return problems


def _check_stall(stall: Any, problems: List[str]) -> None:
    if not isinstance(stall, dict):
        problems.append("stall is not an object")
        return
    for key, types in (
        ("engine", (str,)),
        ("tripped_unix", (int, float)),
        ("stalled_for_s", (int, float)),
        ("stall_after_s", (int, float)),
        ("tasks_done", (int,)),
        ("lock_holders", (dict,)),
        ("extra", (dict,)),
        ("history", (list,)),
    ):
        if not isinstance(stall.get(key), types):
            problems.append(f"missing or bad 'stall.{key}'")
    queues = stall.get("queues")
    if not isinstance(queues, list):
        problems.append("stall.queues is not an array")
        return
    for i, q in enumerate(queues):
        if (
            not isinstance(q, dict)
            or not isinstance(q.get("name"), str)
            or not isinstance(q.get("depth"), int)
        ):
            problems.append(f"stall.queues[{i}]: needs string name and int depth")
    if any(
        isinstance(q, dict) and isinstance(q.get("depth"), int) and q["depth"] != 0
        for q in queues
    ) and not isinstance(stall.get("stuck_queue"), str):
        problems.append("stall.stuck_queue must name a queue when work is pending")
