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
diverge; the tail of theirs rides every flush reply (bus on or off) and
the control process keeps the last one each worker sent
(:func:`keep_remote_tail`), for the :data:`REMOTE_TAILS` workers heard
from most recently.  That store belongs to this module, not to an
engine or a session, so every snapshot carries it under ``workers`` —
one written after the failed matcher has already closed included — and
a dead worker's last moments survive it.

Snapshots are schema-versioned JSON (:data:`FLIGHT_SCHEMA`) and are
produced three ways:

* on demand — ``repro obs flight`` and the serve ``dump`` verb;
* on unhandled engine error — when a dump path is configured
  (:func:`set_dump_path` or ``REPRO_FLIGHT_DUMP``), the interpreter
  writes the snapshot before re-raising;
* on watchdog trip — the stall bundle embeds the ring tail
  (:mod:`repro.obs.watchdog`).
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

#: Environment variable naming where to dump a snapshot on unhandled
#: engine error (see :func:`dump_on_error`).
DUMP_ENV = "REPRO_FLIGHT_DUMP"

_EVENT = Tuple[int, str, str, Optional[dict]]

_ring: Deque[_EVENT] = deque(maxlen=DEFAULT_RING_SIZE)
_recorded_total = 0
_dump_path: Optional[str] = None
# Engines that have run in this process (name -> last-seen worker
# count; sequential engines register 1).  Process identity, not run
# history: configure()/reset() leave it alone so a snapshot taken
# after a ring resize still names the engines that fed it.
_engines: Dict[str, int] = {}
# OS pid -> (display name, last shipped tail), least recently heard first.
_remote_tails: "OrderedDict[int, Tuple[str, List[dict]]]" = OrderedDict()
# Serializes snapshot/configure against concurrent recorders; record()
# itself stays lock-free (deque.append is atomic under the GIL).
_snap_lock = threading.Lock()


def configure(capacity: int = DEFAULT_RING_SIZE) -> None:
    """Resize the ring (drops current contents)."""
    global _ring, _recorded_total
    if capacity < 1:
        raise ValueError("flight ring capacity must be >= 1")
    with _snap_lock:
        _ring = deque(maxlen=capacity)
        _recorded_total = 0
        _remote_tails.clear()


def reset() -> None:
    """Empty the ring (and the worker tails) without changing its
    capacity."""
    global _recorded_total
    with _snap_lock:
        _ring.clear()
        _recorded_total = 0
        _remote_tails.clear()


def note_engine(name: str, workers: int = 1) -> None:
    """Register an engine running in this process for snapshot
    metadata.  Called once per matcher construction — last worker
    count per engine name wins."""
    _engines[name] = int(workers)


def engines() -> Dict[str, int]:
    return dict(_engines)


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
        events = events[-n:]
    return [
        {"t_ns": t, "engine": engine, "event": event, "detail": detail}
        for t, engine, event, detail in events
    ]


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


def snapshot(reason: str) -> Dict[str, Any]:
    """The ring as a schema-versioned JSON document, with the kept
    worker tails (if any) under ``workers``."""
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
    """Configure (or clear, with None) the on-error dump destination.
    The ``REPRO_FLIGHT_DUMP`` environment variable is the fallback when
    no explicit path is set."""
    global _dump_path
    _dump_path = path


def dump_path() -> Optional[str]:
    return _dump_path or os.environ.get(DUMP_ENV) or None


def dump_on_error(reason: str) -> Optional[str]:
    """Write a snapshot to the configured dump path, if any.

    Returns the path written, or None when no path is configured.
    Never raises: this runs on the unhandled-error path, where a
    secondary failure must not mask the original exception.
    """
    path = dump_path()
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
    return problems
