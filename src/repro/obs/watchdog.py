"""The stall watchdog: no-progress detection for the parallel engines.

The failure mode it exists for: work queued or owed, nothing finishing,
every worker spinning or blocked — a shape offline tools can only
*find*, never diagnose in a live run.  The watchdog turns it into a
reproducible, self-describing dump.

Mechanics: a daemon thread samples a *probe* — a cheap callable the
engine supplies — four times per ``stall_after_s``.  The probe returns
the stall's history entry itself: ``{"tasks_done": cumulative tasks
done, "queues": [{"name", "depth"}, ...], "lock_holders": {lock label:
holder}, "extra": engine-specific detail}``, depths never negative.  A
**stall** is "work is pending (some depth is nonzero) but the
done-counter has not advanced for ``stall_after_s``"; an
idle-but-quiescent engine (every depth 0) never trips.  On a stall
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
from time import monotonic, time
from typing import Any, Callable, Dict, List, Optional

from . import events as _obs
from . import flight

#: Probe samples kept for the stall's history section.
HISTORY = 8


class StallWatchdog:
    """Watches one engine instance for no-progress intervals.

    Parameters
    ----------
    probe:
        Zero-argument callable returning one history entry (the
        module docstring gives its keys).  Must be cheap and safe to
        call from a foreign thread at any time.
    engine:
        Display name stamped into stalls ("threaded", "mp", ...).
    stall_after_s:
        How long pending work may sit with no progress before tripping.
    """

    def __init__(
        self,
        probe: Callable[[], Dict[str, Any]],
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

    def evaluate(self, now_s: float, sample: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Feed one probe sample at clock ``now_s``; returns the stall
        if this sample tripped the watchdog, else None."""
        self._history.append({"t_s": now_s, **sample})
        done = sample["tasks_done"]
        progressed = self._last_done is None or done != self._last_done
        self._last_done = done
        if progressed or not any(q["depth"] for q in sample["queues"]):
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

    def _make_stall(self, sample: Dict[str, Any], stalled_for: float) -> Dict[str, Any]:
        # A trip needs pending work, so the deepest queue is nonempty;
        # of equally deep queues the first is named.
        stuck = max(sample["queues"], key=lambda q: q["depth"])
        return {
            "engine": self.engine,
            "tripped_unix": time(),
            "stalled_for_s": stalled_for,
            "stall_after_s": self.stall_after_s,
            "tasks_done": sample["tasks_done"],
            "queues": sample["queues"],
            "stuck_queue": stuck["name"],
            "lock_holders": sample["lock_holders"],
            "extra": sample["extra"],
            "history": list(self._history),
        }
