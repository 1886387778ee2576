"""The stall watchdog: no-progress detection for the parallel engines.

The failure mode it exists for: tasks queued, TaskCount stuck above
zero, every worker spinning or blocked — the shape of the mp engine's
old pipe-full forward deadlock — which offline tools can only *find*,
never diagnose in a live run.  The watchdog turns that (and any future
cousin) into a reproducible, self-describing dump.

Mechanics: a daemon thread samples a *probe* — a cheap callable the
engine supplies returning :class:`ProbeSample` (cumulative tasks done,
per-queue depths, currently-held locks) — four times per
``stall_after_s``.  A **stall** is "work is pending but the
done-counter has not advanced for ``stall_after_s``"; an
idle-but-quiescent engine (no pending work) never trips.  On a stall
the watchdog files one **stall** record with the flight recorder
(:func:`repro.obs.flight.file_stall`): the probe history, per-queue
depths naming the stuck queue and the lock-holder table.  It rides
every later flight snapshot under ``stall``, beside the ring and the
worker tails it would otherwise repeat.  The watchdog re-arms only
after progress resumes, so one stall episode is one record.

The trip-evaluation core (:meth:`StallWatchdog.evaluate`) is callable
synchronously, so unit tests drive it with a fabricated clock instead
of sleeping.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import monotonic, time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import events as _obs
from . import flight

#: Probe samples kept for the stall's history section.
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
        Display name stamped into stalls ("threaded", "mp", ...).
    stall_after_s:
        How long pending work may sit with no progress before tripping.
    """

    def __init__(
        self,
        probe: Callable[[], ProbeSample],
        engine: str = "engine",
        stall_after_s: float = 1.0,
    ) -> None:
        if stall_after_s <= 0:
            raise ValueError("stall_after_s must be positive")
        self.probe = probe
        self.engine = engine
        self.stall_after_s = stall_after_s
        self.stalls: List[Dict[str, Any]] = []
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
        # A stall is seen within ~1.25x its threshold.
        interval_s = max(self.stall_after_s / 4.0, 0.01)
        while not self._stop.wait(interval_s):
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
        """Feed one probe sample at clock ``now_s``; returns the stall
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
        self._armed = False  # one stall per episode
        stall = self._make_stall(sample, stalled_for)
        self.trips += 1
        self.stalls.append(stall)
        flight.record(
            self.engine,
            "watchdog.trip",
            {"stuck_queue": stall["stuck_queue"], "stalled_for_s": round(stalled_for, 3)},
        )
        if _obs.ENABLED:
            _obs.count("watchdog.trips")
        flight.file_stall(stall)
        return stall

    def _make_stall(self, sample: ProbeSample, stalled_for: float) -> Dict[str, Any]:
        stuck = None
        deepest = 0
        for name, depth in sample.queues:
            weight = depth if depth > 0 else (1 if depth < 0 else 0)
            if weight > deepest:
                deepest = weight
                stuck = name
        return {
            "engine": self.engine,
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
        }
