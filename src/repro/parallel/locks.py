"""Synchronization primitives for the threaded parallel matcher (§3.2).

The paper uses explicit interlocked test-and-set instructions rather
than OS primitives, with a *test and test-and-set* discipline: spin on
ordinary reads (served from cache) and attempt the interlocked write
only when the lock looks free.  :class:`SpinLock` mirrors that
structure — a plain attribute read is the "test", a non-blocking
``acquire`` the "test-and-set" — and counts spins per acquisition,
which is exactly the contention metric of Tables 4-7 and 4-9.

Two hash-table *line* locking schemes guard the token hash tables:

* :class:`SimpleLineLocks` — one Free/Taken flag per line; the holder
  performs the entire memory operation inside (first scheme of §3.2);
* :class:`MRSWLineLocks` — the multiple-reader-single-writer variant:
  a per-line flag (Unused/Left/Right) plus user counter behind a guard
  lock, and a separate modification lock serializing destructive list
  updates; a process finding the line busy with tokens from the other
  side gives up and requeues its task (second scheme of §3.2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import sleep as _sleep
from typing import Dict, List, Optional, Tuple

from .hooks import yield_point
from ..obs import events as _obs

UNUSED = 0
LEFT_IN_USE = 1
RIGHT_IN_USE = 2

_SIDE_STATE = {"L": LEFT_IN_USE, "R": RIGHT_IN_USE}

#: When a stall watchdog is attached (see
#: :class:`repro.obs.watchdog.StallWatchdog`), spin locks record the
#: holding thread's name so the stall record can print a
#: lock-holder table.  Off by default: ``current_thread()`` on every
#: acquire is measurable on the hottest path in the tree.
HOLDER_TRACKING = False


def set_holder_tracking(on: bool) -> None:
    global HOLDER_TRACKING
    HOLDER_TRACKING = on


@dataclass
class LockStats:
    """Spin counts per acquisition — the paper's contention measure.

    ``contended`` counts the acquisitions that did *not* succeed on the
    first test-and-set (i.e. the caller observed the lock busy or lost
    an interlocked attempt at least once), so
    ``contended / acquisitions`` is a true contention ratio rather than
    the mean-spins proxy alone.
    """

    acquisitions: int = 0
    spins: int = 0
    requeues: int = 0
    contended: int = 0

    @property
    def mean_spins(self) -> float:
        return self.spins / self.acquisitions if self.acquisitions else 0.0

    @property
    def uncontended(self) -> int:
        return self.acquisitions - self.contended

    @property
    def contention_ratio(self) -> float:
        return self.contended / self.acquisitions if self.acquisitions else 0.0

    def merge(self, other: "LockStats") -> None:
        self.acquisitions += other.acquisitions
        self.spins += other.spins
        self.requeues += other.requeues
        self.contended += other.contended


class SpinLock:
    """Test-and-test-and-set spin lock with spin counting.

    The counters are updated while the lock is held, so they need no
    extra synchronization.  ``label`` names the lock *site* ("queue",
    "line", ...) for the observability layer, which — only while
    :mod:`repro.obs.events` is enabled — times each acquisition's wait
    (spin duration) and hold (acquire→release) and aggregates them per
    label into the timed contention table of ``repro trace``.
    """

    __slots__ = ("_lock", "_busy", "stats", "label", "_t_acq", "_wait_ns",
                 "_contended_acq", "holder")

    def __init__(self, label: str = "lock") -> None:
        self._lock = threading.Lock()
        self._busy = False
        self.stats = LockStats()
        self.label = label
        #: Holding thread's name while HOLDER_TRACKING is on, else None.
        self.holder: Optional[str] = None
        # Observability state for the acquisition in flight; _t_acq is
        # 0 whenever obs was disabled at acquire time, making the
        # release-path check a single attribute read.
        self._t_acq = 0
        self._wait_ns = 0
        self._contended_acq = False

    def acquire(self) -> int:
        """Spin until acquired; returns the number of spins (>= 1)."""
        spins = 1
        obs_on = _obs.ENABLED
        t0 = _obs.now() if obs_on else 0
        yield_point("lock_acquire", self)
        while True:
            # "test": spin on an ordinary read while the lock is busy.
            while self._busy:
                spins += 1
                yield_point("lock_spin", self)
                if spins % 128 == 0:
                    # Under the GIL a pure busy-wait can starve the
                    # holder for a whole switch interval; yield
                    # explicitly (the Nanobus never had this problem).
                    _sleep(0)
            # "test-and-set": the interlocked attempt.
            if self._lock.acquire(False):
                self._busy = True
                if HOLDER_TRACKING:
                    self.holder = threading.current_thread().name
                stats = self.stats
                stats.acquisitions += 1
                stats.spins += spins
                if spins > 1:
                    stats.contended += 1
                if obs_on:
                    t1 = _obs.now()
                    self._wait_ns = t1 - t0
                    self._t_acq = t1
                    self._contended_acq = spins > 1
                return spins
            spins += 1
            yield_point("lock_spin", self)

    def release(self) -> None:
        if self._t_acq:
            _obs.lock_hit(
                self.label,
                self._wait_ns,
                _obs.now() - self._t_acq,
                self._contended_acq,
            )
            self._t_acq = 0
        if self.holder is not None:
            self.holder = None
        self._busy = False
        self._lock.release()
        yield_point("lock_release", self)

    def __enter__(self) -> "SpinLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class SimpleLineLocks:
    """One Free/Taken flag per hash-table line (simple scheme)."""

    name = "simple"

    def __init__(self, n_lines: int) -> None:
        self.n_lines = n_lines
        self._locks = [SpinLock(label="line") for _ in range(n_lines)]

    def enter(self, line: int, side: str) -> bool:
        """Take the line for the whole operation.  Always succeeds
        (returns True) after spinning; ``side`` is ignored."""
        self._locks[line % self.n_lines].acquire()
        return True

    def enter_modify(self, line: int) -> None:
        """No separate modification lock: the line flag covers it."""

    def exit_modify(self, line: int) -> None:
        pass

    def exit(self, line: int, side: str) -> None:
        self._locks[line % self.n_lines].release()

    def stats(self) -> LockStats:
        merged = LockStats()
        for lock in self._locks:
            merged.merge(lock.stats)
        return merged

    def stats_per_line(self) -> List[LockStats]:
        return [lock.stats for lock in self._locks]

    def holders(self) -> Dict[str, str]:
        """Currently-held line locks (empty unless HOLDER_TRACKING)."""
        return {
            f"line[{i}]": lock.holder
            for i, lock in enumerate(self._locks)
            if lock.holder is not None
        }


class MRSWLineLocks:
    """Multiple-reader-single-writer line locks (complex scheme).

    Per line: a guard :class:`SpinLock` protecting ``(flag, counter)``,
    and a modification :class:`SpinLock` serializing destructive token
    list updates.  ``enter`` returns False — *requeue the task* — when
    the line is processing tokens from the opposite side.
    """

    name = "mrsw"

    def __init__(self, n_lines: int) -> None:
        self.n_lines = n_lines
        self._guards = [SpinLock(label="line_guard") for _ in range(n_lines)]
        self._mods = [SpinLock(label="line_mod") for _ in range(n_lines)]
        self._flags = [UNUSED] * n_lines
        self._counts = [0] * n_lines

    def enter(self, line: int, side: str) -> bool:
        line %= self.n_lines
        want = _SIDE_STATE[side]
        guard = self._guards[line]
        guard.acquire()
        flag = self._flags[line]
        if flag != UNUSED and flag != want:
            guard.stats.requeues += 1
            guard.release()
            return False
        self._flags[line] = want
        self._counts[line] += 1
        guard.release()
        return True

    def enter_modify(self, line: int) -> None:
        self._mods[line % self.n_lines].acquire()

    def exit_modify(self, line: int) -> None:
        self._mods[line % self.n_lines].release()

    def exit(self, line: int, side: str) -> None:
        line %= self.n_lines
        guard = self._guards[line]
        guard.acquire()
        self._counts[line] -= 1
        if self._counts[line] == 0:
            self._flags[line] = UNUSED
        guard.release()

    def stats(self) -> LockStats:
        merged = LockStats()
        for lock in self._guards:
            merged.merge(lock.stats)
        for lock in self._mods:
            merged.merge(lock.stats)
        return merged

    def stats_per_line(self) -> List[LockStats]:
        out = []
        for guard, mod in zip(self._guards, self._mods):
            merged = LockStats()
            merged.merge(guard.stats)
            merged.merge(mod.stats)
            out.append(merged)
        return out

    def holders(self) -> Dict[str, str]:
        """Currently-held guard/mod locks (empty unless HOLDER_TRACKING)."""
        held = {}
        for i, (guard, mod) in enumerate(zip(self._guards, self._mods)):
            if guard.holder is not None:
                held[f"line_guard[{i}]"] = guard.holder
            if mod.holder is not None:
                held[f"line_mod[{i}]"] = mod.holder
        return held


def make_line_locks(scheme: str, n_lines: int):
    if scheme == "simple":
        return SimpleLineLocks(n_lines)
    if scheme == "mrsw":
        return MRSWLineLocks(n_lines)
    raise ValueError(f"unknown line-lock scheme {scheme!r}")
