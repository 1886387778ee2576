"""The ship: how a worker process's observations reach the one bus.

The mp backend's match workers are forked processes, so what they
record — on their own copies of :mod:`repro.obs.events` and
:mod:`repro.obs.flight` — would die with them.  It rides the existing
per-batch synchronization point instead, the flush reply (no new IPC
round trips), as one dict whose format only this module knows:

* :func:`build_ship` (worker side) snapshots the local bus — spans,
  per-node aggregates, counters, drop count — bounds the span payload
  (:data:`SHIP_MAX_SPANS`; overflow is *counted*, never silently cut),
  attaches the flight-recorder tail, and resets the local bus so each
  ship is a delta.  With the bus off a ship is the tail and nothing
  else.
* :func:`file_ship` (control side, called by the thread that flushed)
  hands the tail to :func:`repro.obs.flight.keep_remote_tail` — always
  — and, while the bus is on, files the delta into the worker's own
  buffer of the control process's bus
  (:func:`repro.obs.events.file_remote`), counting
  ``fabric.ship_batches`` / ``fabric.ship_spans`` /
  ``fabric.ship_dropped`` there.  From then on the worker is one more
  row of :func:`repro.obs.events.snapshot`, which profiles and the
  trace renderer read without knowing an engine had processes.

:func:`write_capture` / :func:`load_capture` keep a snapshot as a file
(``repro trace --fabric-out``, ``repro obs stitch``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from . import events as _events
from . import flight
from .events import ObsSnapshot

#: Span cap per flush reply (worker side).  A conformance-scale batch
#: ships a handful of spans; a runaway batch ships the most recent
#: SHIP_MAX_SPANS and counts the rest in ``ship_dropped``.
SHIP_MAX_SPANS = 20_000

#: Flight-recorder events attached to each ship (the worker's black
#: box tail travels with every flush, so the control process always
#: holds a dead worker's last moments).
SHIP_FLIGHT_TAIL = 20


def build_ship(
    max_spans: int = SHIP_MAX_SPANS, tail_n: int = SHIP_FLIGHT_TAIL
) -> Dict[str, Any]:
    """Snapshot-and-reset this process's bus into one ship payload.

    Called in the *worker* process at flush time.  The local bus is
    reset afterwards so consecutive ships are deltas; the worker's
    retired drop counts stay monotonic locally (see
    :func:`repro.obs.events.dropped_total`) and the per-window drop
    count travels in the payload.
    """
    snap = _events.snapshot()
    _events.reset()
    spans = [span for spans in snap.workers.values() for span in spans]
    ship_dropped = 0
    if len(spans) > max_spans:
        ship_dropped = len(spans) - max_spans
        spans = spans[-max_spans:]
    return {
        "pid": os.getpid(),
        "spans": spans,
        "nodes": snap.nodes,
        "counters": snap.counters,
        "dropped": snap.dropped,
        "ship_dropped": ship_dropped,
        "flight": flight.tail(tail_n),
    }


def file_ship(name: str, ship: Dict[str, Any]) -> None:
    """File one flush reply's ship from the worker displayed as ``name``."""
    pid = ship["pid"]
    flight.keep_remote_tail(pid, name, ship["flight"])
    if not _events.ENABLED:
        return
    spans = ship["spans"]
    dropped = ship["dropped"] + ship["ship_dropped"]
    kept = _events.file_remote(
        pid, name, spans, ship["nodes"], ship["counters"], dropped=dropped
    )
    dropped += len(spans) - kept
    _events.count("fabric.ship_batches")
    if kept:
        _events.count("fabric.ship_spans", kept)
    if dropped:
        _events.count("fabric.ship_dropped", dropped)


def write_capture(path: str, snap: ObsSnapshot) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(snap.to_json(), fh)
        fh.write("\n")
    os.replace(tmp, path)


def load_capture(path: str) -> ObsSnapshot:
    """The snapshot :func:`write_capture` saved at ``path``; a file that
    is not one raises ``ValueError("bad capture: <where>: <what>")``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ObsSnapshot.from_json(json.load(fh))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # not JSON, or not what to_json writes
        raise ValueError(f"bad capture: {exc}") from None
