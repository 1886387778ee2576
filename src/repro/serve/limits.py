"""Service budgets and backpressure parameters.

Why budgets: one session's cross-product explosion (e.g. Tourney's
``propose-match``, the paper's §4.2 culprit) must not starve every
other session.  Each transaction gets a *cycle budget* (resumable — an
exhausted request returns and the next one picks up where it stopped)
and a *wall-clock deadline*; each session gets a *bounded inbox* so a
flooding client is pushed back with ``retry_after_ms`` instead of
growing an unbounded queue inside the server.

Budgets above the server cap are **rejected**, not clamped: a client
asking for more than the server will ever grant should learn that
immediately rather than observe silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class BudgetError(ValueError):
    """A request asked for more cycles/deadline than the server allows."""


@dataclass(frozen=True)
class ServiceLimits:
    """Tunable per-server limits; the defaults suit tests and demos."""

    #: Concurrent sessions the server will host.
    max_sessions: int = 256
    #: Queued (unstarted) transactions per session before backpressure.
    inbox_depth: int = 16
    #: Hard per-transaction cycle cap; larger requests are rejected.
    max_cycles_per_txn: int = 10_000
    #: Cycle budget used when a transaction does not specify one.
    default_cycles_per_txn: int = 500
    #: Maximum make/remove/modify ops in one transaction.
    max_ops_per_txn: int = 1_000
    #: Wall-clock deadline applied when a transaction names none.
    default_deadline_ms: float = 2_000.0
    #: Hard per-transaction deadline cap; larger requests are rejected.
    max_deadline_ms: float = 30_000.0
    #: Suggested client back-off when an inbox (or the session table)
    #: is full.
    retry_after_ms: float = 50.0

    def validate(self) -> "ServiceLimits":
        for name in (
            "max_sessions",
            "inbox_depth",
            "max_cycles_per_txn",
            "max_ops_per_txn",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.default_cycles_per_txn <= self.max_cycles_per_txn:
            raise ValueError(
                "default_cycles_per_txn must be within [0, max_cycles_per_txn]"
            )
        if not 0 < self.default_deadline_ms <= self.max_deadline_ms:
            raise ValueError(
                "default_deadline_ms must be within (0, max_deadline_ms]"
            )
        if self.retry_after_ms <= 0:
            raise ValueError("retry_after_ms must be positive")
        return self

    def resolve_cycles(self, requested: Optional[int]) -> int:
        """The cycle budget for one transaction; rejects over-asks."""
        if requested is None:
            return self.default_cycles_per_txn
        if requested < 0:
            raise BudgetError(f"max_cycles must be >= 0, got {requested}")
        if requested > self.max_cycles_per_txn:
            raise BudgetError(
                f"max_cycles {requested} exceeds the server cap "
                f"{self.max_cycles_per_txn}"
            )
        return requested

    def resolve_deadline_ms(self, requested: Optional[float]) -> float:
        """The wall-clock deadline for one transaction; rejects over-asks."""
        if requested is None:
            return self.default_deadline_ms
        # Written so that NaN, which compares false both ways and would
        # make a deadline that never fires, fails it.
        if not requested > 0:
            raise BudgetError(f"deadline_ms must be positive, got {requested}")
        if requested > self.max_deadline_ms:
            raise BudgetError(
                f"deadline_ms {requested} exceeds the server cap "
                f"{self.max_deadline_ms}"
            )
        return requested

    def check_ops_count(self, n_ops: int) -> None:
        if n_ops > self.max_ops_per_txn:
            raise BudgetError(
                f"{n_ops} ops in one transaction exceeds the server cap "
                f"{self.max_ops_per_txn}"
            )
