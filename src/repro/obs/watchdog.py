"""The stall watchdog: no-progress detection for the parallel engines.

The failure mode it exists for: tasks queued, TaskCount stuck above
zero, every worker spinning or blocked — the shape of the mp engine's
old pipe-full forward deadlock — which offline tools can only *find*,
never diagnose in a live run.  The watchdog turns that (and any future
cousin) into a reproducible, self-describing dump.

Mechanics: a daemon thread samples a *probe* — a cheap callable the
engine supplies returning :class:`ProbeSample` (cumulative tasks done,
per-queue depths, currently-held locks) — every ``interval_s``.  A
**stall** is "work is pending but the done-counter has not advanced
for ``stall_after_s``"; an idle-but-quiescent engine (no pending work)
never trips.  On a stall the watchdog emits one schema-versioned
diagnostic **bundle** (:data:`WATCHDOG_SCHEMA`): the probe history,
per-queue depths naming the stuck queue, the lock-holder table, and
the flight-recorder tail (local ring plus the kept worker tails),
then re-arms only after progress resumes, so one stall episode is one
bundle.

The trip-evaluation core (:meth:`StallWatchdog.evaluate`) is callable
synchronously, so unit tests drive it with a fabricated clock instead
of sleeping.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from time import monotonic, time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import events as _obs
from . import flight

#: Schema identifier stamped into every diagnostic bundle.
WATCHDOG_SCHEMA = "repro.watchdog/1"

#: Probe samples kept for the bundle's history section.
HISTORY = 8


@dataclass
class ProbeSample:
    """One reading of an engine's progress counters.

    ``tasks_done`` is cumulative (monotonic while the engine makes
    progress); ``queues`` is ``[(name, depth), ...]`` where a negative
    depth means "unknown but non-empty" (the mp backend's OS pipes
    expose no length); ``lock_holders`` maps a lock label to whoever
    holds it right now; ``extra`` carries engine-specific detail
    (worker liveness, TaskCount, ...).
    """

    tasks_done: int
    queues: List[Tuple[str, int]] = field(default_factory=list)
    lock_holders: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def pending(self) -> int:
        """Total queued work; unknown-but-non-empty depths count as 1."""
        return sum(d if d > 0 else (1 if d < 0 else 0) for _n, d in self.queues)

    def to_json(self) -> Dict[str, Any]:
        return {
            "tasks_done": self.tasks_done,
            "queues": [{"name": n, "depth": d} for n, d in self.queues],
            "lock_holders": dict(self.lock_holders),
            "extra": dict(self.extra),
        }


class StallWatchdog:
    """Watches one engine instance for no-progress intervals.

    Parameters
    ----------
    probe:
        Zero-argument callable returning a :class:`ProbeSample`.  Must
        be cheap and safe to call from a foreign thread at any time.
    engine:
        Display name stamped into bundles ("threaded", "mp", ...).
    stall_after_s:
        How long pending work may sit with no progress before tripping.
    interval_s:
        Sampling period; defaults to ``stall_after_s / 4`` (clamped to
        at least 10 ms) so a stall is seen within ~1.25x its threshold.
    on_trip:
        Optional callback receiving the bundle dict.
    dump_path:
        When set, each bundle is also written there as JSON (the
        last trip wins — by then you are reading a broken run anyway).
    """

    def __init__(
        self,
        probe: Callable[[], ProbeSample],
        engine: str = "engine",
        stall_after_s: float = 1.0,
        interval_s: Optional[float] = None,
        on_trip: Optional[Callable[[Dict[str, Any]], None]] = None,
        dump_path: Optional[str] = None,
    ) -> None:
        if stall_after_s <= 0:
            raise ValueError("stall_after_s must be positive")
        self.probe = probe
        self.engine = engine
        self.stall_after_s = stall_after_s
        self.interval_s = (
            interval_s if interval_s is not None else max(stall_after_s / 4.0, 0.01)
        )
        self.on_trip = on_trip
        self.dump_path = dump_path
        self.bundles: List[Dict[str, Any]] = []
        self.trips = 0
        self._history: deque = deque(maxlen=HISTORY)
        self._last_done: Optional[int] = None
        self._progress_t: Optional[float] = None
        self._armed = True
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "StallWatchdog":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=f"watchdog-{self.engine}", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                sample = self.probe()
            except Exception:  # engine mid-teardown; skip this tick
                continue
            self.evaluate(monotonic(), sample)

    # -- the trip decision (synchronously testable) -------------------------

    @property
    def tripped(self) -> bool:
        return self.trips > 0

    def evaluate(self, now_s: float, sample: ProbeSample) -> Optional[Dict[str, Any]]:
        """Feed one probe sample at clock ``now_s``; returns the bundle
        if this sample tripped the watchdog, else None."""
        self._history.append((now_s, sample))
        progressed = (
            self._last_done is None or sample.tasks_done != self._last_done
        )
        self._last_done = sample.tasks_done
        if progressed or sample.pending == 0:
            # Fresh progress, or idle-but-quiescent: never a stall.
            self._progress_t = now_s
            self._armed = True
            return None
        if self._progress_t is None:  # pragma: no cover - first-sample guard
            self._progress_t = now_s
            return None
        stalled_for = now_s - self._progress_t
        if stalled_for < self.stall_after_s or not self._armed:
            return None
        self._armed = False  # one bundle per stall episode
        bundle = self._make_bundle(sample, stalled_for)
        self.trips += 1
        self.bundles.append(bundle)
        flight.record(
            self.engine,
            "watchdog.trip",
            {"stuck_queue": bundle["stuck_queue"], "stalled_for_s": round(stalled_for, 3)},
        )
        if _obs.ENABLED:
            _obs.count("watchdog.trips")
        if self.dump_path:
            try:
                tmp = f"{self.dump_path}.tmp.{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(bundle, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, self.dump_path)
            except OSError:  # pragma: no cover - disk full / bad path
                pass
        if self.on_trip is not None:
            self.on_trip(bundle)
        return bundle

    def _make_bundle(self, sample: ProbeSample, stalled_for: float) -> Dict[str, Any]:
        stuck = None
        deepest = 0
        for name, depth in sample.queues:
            weight = depth if depth > 0 else (1 if depth < 0 else 0)
            if weight > deepest:
                deepest = weight
                stuck = name
        return {
            "schema": WATCHDOG_SCHEMA,
            "engine": self.engine,
            "reason": "stall",
            "tripped_unix": time(),
            "stalled_for_s": stalled_for,
            "stall_after_s": self.stall_after_s,
            "tasks_done": sample.tasks_done,
            "queues": [{"name": n, "depth": d} for n, d in sample.queues],
            "stuck_queue": stuck,
            "lock_holders": dict(sample.lock_holders),
            "extra": dict(sample.extra),
            "history": [
                {"t_s": t, **s.to_json()} for t, s in list(self._history)
            ],
            "flight": flight.tail(),
            "worker_flight": flight.remote_tails(),
        }


def validate_bundle(doc: Any) -> List[str]:
    """Schema-check a watchdog bundle; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != WATCHDOG_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {WATCHDOG_SCHEMA!r}"
        )
    for key, types in (
        ("engine", (str,)),
        ("reason", (str,)),
        ("tripped_unix", (int, float)),
        ("stalled_for_s", (int, float)),
        ("stall_after_s", (int, float)),
        ("tasks_done", (int,)),
        ("lock_holders", (dict,)),
        ("extra", (dict,)),
        ("worker_flight", (dict,)),
    ):
        if not isinstance(doc.get(key), types):
            problems.append(f"missing or bad {key!r}")
    queues = doc.get("queues")
    if not isinstance(queues, list):
        problems.append("queues is not an array")
    else:
        for i, q in enumerate(queues):
            if (
                not isinstance(q, dict)
                or not isinstance(q.get("name"), str)
                or not isinstance(q.get("depth"), int)
            ):
                problems.append(f"queues[{i}]: needs string name and int depth")
        if any(
            isinstance(q, dict) and isinstance(q.get("depth"), int) and q["depth"] != 0
            for q in queues
        ) and not isinstance(doc.get("stuck_queue"), str):
            problems.append("stuck_queue must name a queue when work is pending")
    history = doc.get("history")
    if not isinstance(history, list):
        problems.append("history is not an array")
    if not isinstance(doc.get("flight"), list):
        problems.append("flight is not an array")
    return problems
