"""Counters and latency percentiles for the service layer.

Latencies are kept in a fixed-capacity window of the most recent
samples (a ring buffer); percentiles are nearest-rank over that window,
computed on demand.  Counts are monotonic over the full lifetime.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional

from ..obs.meter import nearest_rank


class LatencyWindow:
    """Ring buffer of recent latency samples (seconds)."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._samples: List[float] = []
        self._next = 0
        self.count = 0  # lifetime total, not window size
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if len(self._samples) < self.capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
            self._next = (self._next + 1) % self.capacity

    @property
    def window_size(self) -> int:
        """Number of samples currently held (≤ capacity)."""
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) over the window.

        Returns 0.0 when the window is empty; raises ``ValueError`` for
        ``p`` outside [0, 100].
        """
        if not self._samples:
            if not 0 <= p <= 100:
                raise ValueError(f"percentile must be in [0, 100], got {p}")
            return 0.0
        return nearest_rank(sorted(self._samples), p)

    def summary(self) -> Dict[str, float]:
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "window": self.window_size,
            "mean_ms": mean * 1e3,
            "p50_ms": self.percentile(50) * 1e3,
            "p95_ms": self.percentile(95) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
        }


@dataclass
class SessionCounters:
    """Per-session request accounting."""

    transactions: int = 0
    cycles: int = 0
    firings: int = 0
    wm_ops: int = 0
    rejected_busy: int = 0
    rejected_budget: int = 0
    errors: int = 0
    outcomes: Counter = field(default_factory=Counter)
    latency: LatencyWindow = field(default_factory=LatencyWindow)

    def snapshot(self) -> Dict:
        return {
            "transactions": self.transactions,
            "cycles": self.cycles,
            "firings": self.firings,
            "wm_ops": self.wm_ops,
            "rejected_busy": self.rejected_busy,
            "rejected_budget": self.rejected_budget,
            "errors": self.errors,
            "outcomes": dict(self.outcomes),
            "latency": self.latency.summary(),
        }


@dataclass
class ServerMetrics:
    """Server-wide accounting, aggregated across sessions and requests."""

    started: float = field(default_factory=monotonic)
    requests: int = 0
    errors: int = 0
    connections: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    rejected_busy: int = 0
    rejected_budget: int = 0
    transactions: int = 0
    cycles: int = 0
    firings: int = 0
    latency: LatencyWindow = field(default_factory=LatencyWindow)

    def snapshot(self) -> Dict:
        return {
            "uptime_s": monotonic() - self.started,
            "requests": self.requests,
            "errors": self.errors,
            "connections": self.connections,
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "rejected_busy": self.rejected_busy,
            "rejected_budget": self.rejected_budget,
            "transactions": self.transactions,
            "cycles": self.cycles,
            "firings": self.firings,
            "latency": self.latency.summary(),
        }
