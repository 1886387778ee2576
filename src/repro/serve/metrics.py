"""Counters and latency percentiles for the service layer.

Latencies are kept in a fixed-capacity window of the most recent
samples (:class:`repro.obs.meter.SampleRing`, the one ring in the
tree); percentiles are nearest-rank over that window, computed on
demand.  Counts are monotonic over the full lifetime.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict

from ..obs.meter import SampleRing, nearest_rank  # noqa: F401  (nearest_rank: re-export)


class LatencyWindow(SampleRing):
    """Recent latency samples: seconds in, a ``*_ms`` summary out."""

    __slots__ = ("count", "total_seconds")

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(capacity)
        self.count = 0  # lifetime total, not window size
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        super().record(seconds)

    @property
    def window_size(self) -> int:
        """Number of samples currently held (≤ capacity)."""
        return len(self)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100], else ``ValueError``)
        over the window, in seconds; 0.0 when the window is empty."""
        return self.percentiles(p)[0]

    def summary(self) -> Dict[str, float]:
        mean = self.total_seconds / self.count if self.count else 0.0
        p50, p95, p99 = self.percentiles(50, 95, 99)
        return {
            "count": self.count,
            "window": self.window_size,
            "mean_ms": mean * 1e3,
            "p50_ms": p50 * 1e3,
            "p95_ms": p95 * 1e3,
            "p99_ms": p99 * 1e3,
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
