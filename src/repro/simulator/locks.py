"""Lock models for the discrete-event simulator.

:class:`SimLock` models a test-and-test-and-set spin lock with
FIFO-by-request-time granting: a request at time *t* is granted at
``max(t, free_at)`` and the waiting time is converted into a spin count
(one spin per ``spin_period`` instructions, minimum 1 — matching the
paper's "number of times a process spins before it gets access", which
is 1.00–1.03 even without contention in Table 4-7).  The event loop
(:mod:`.engine`) carries the same arithmetic inline for the queue locks
and the simple line locks; the objects here serve the MRSW scheme.

:class:`SimMRSWLine` models the per-line state of the
multiple-reader-single-writer scheme: the Unused/Left/Right flag with a
user count behind a guard lock, plus the modification lock.  Same-side
activations overlap in the search phase; opposite-side arrivals are
rejected (the caller requeues the task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class SpinStats:
    """Accumulated contention for one lock (or one group of locks)."""

    acquisitions: int = 0
    spins: int = 0
    requeues: int = 0

    @property
    def mean_spins(self) -> float:
        return self.spins / self.acquisitions if self.acquisitions else 0.0

    def merge(self, other: "SpinStats") -> None:
        self.acquisitions += other.acquisitions
        self.spins += other.spins
        self.requeues += other.requeues


class SimLock:
    """Exclusive spin lock with request-time FIFO granting.

    Models the test-and-test-and-set *handoff storm*: when a contended
    lock is released, every spinner rushes its interlocked attempt onto
    the bus, stretching the effective hold by ``handoff`` instructions
    per concurrent waiter.  This is what makes heavily-contended locks
    (Tourney's cross-product line) degrade *further* as processes are
    added, the effect behind the declining columns of Table 4-5.
    """

    __slots__ = ("free_at", "spin_period", "handoff", "stats", "_pending")

    def __init__(
        self,
        spin_period: int,
        stats: Optional[SpinStats] = None,
        handoff: float = 0.0,
    ) -> None:
        self.free_at = 0.0
        self.spin_period = spin_period
        self.handoff = handoff
        self.stats = stats if stats is not None else SpinStats()
        self._pending: list = []

    def request(self, t: float, hold: float) -> Tuple[float, int]:
        """Request at time ``t``, holding for ``hold`` once granted.

        Returns ``(grant_time, spins)``.
        """
        pending = self._pending
        if pending:
            # Grant times never decrease, so the last is the latest.
            if pending[-1] <= t:
                pending.clear()
            else:
                pending[:] = [g for g in pending if g > t]
                hold += self.handoff * len(pending)
        grant = self.free_at if self.free_at > t else t
        self.free_at = grant + hold
        if self.handoff:
            pending.append(grant)
        spins = 1 + int((grant - t) // self.spin_period) if grant > t else 1
        self.stats.acquisitions += 1
        self.stats.spins += spins
        return grant, spins


# MRSW flag states.
UNUSED, LEFT_IN_USE, RIGHT_IN_USE = 0, 1, 2
_STATE = {"L": LEFT_IN_USE, "R": RIGHT_IN_USE}


class SimMRSWLine:
    """Discrete-event model of one MRSW hash-table line.

    Because the event loop delivers requests in time order, the flag
    and count can be advanced lazily: users register their exit times,
    and the state observed by a request at time *t* is computed after
    expiring all exits ≤ *t*.
    """

    __slots__ = ("guard", "mod", "flag", "exits")

    def __init__(
        self,
        spin_period: int,
        guard_stats: SpinStats,
        mod_stats: SpinStats,
        handoff: float = 0.0,
    ) -> None:
        self.guard = SimLock(spin_period, guard_stats, handoff=handoff)
        self.mod = SimLock(spin_period, mod_stats, handoff=handoff)
        self.flag = UNUSED
        self.exits: list = []  # exit times of current users

    def _expire(self, t: float) -> None:
        if self.exits:
            self.exits = [e for e in self.exits if e > t]
            if not self.exits:
                self.flag = UNUSED

    def try_enter(self, t: float, side: str, guard_hold: float) -> Tuple[float, bool]:
        """Attempt to take the line for ``side`` at time ``t``.

        Returns ``(time_after_guard, admitted)``.  When the line is
        busy with the opposite side, ``admitted`` is False and the
        caller requeues the task.
        """
        grant, _spins = self.guard.request(t, guard_hold)
        after = grant + guard_hold
        self._expire(grant)
        want = _STATE[side]
        if self.flag != UNUSED and self.flag != want:
            self.guard.stats.requeues += 1
            return after, False
        self.flag = want
        return after, True

    def register_exit(self, exit_time: float, guard_hold: float) -> None:
        """Record that an admitted user leaves the line at ``exit_time``.

        The exit-side guard pass (decrement, maybe clear the flag) is
        charged to the leaving task via ``mrsw_overhead`` rather than
        run through ``guard.request`` — issuing a lock request at a
        *future* time would advance ``free_at`` past the exit and
        spuriously serialize every same-side entry behind it.
        """
        self.exits.append(exit_time + guard_hold)
