"""The cooperative scheduler behind the schedule-exploration harness.

Installed as the :mod:`repro.parallel.hooks` yield hook, the scheduler
serializes the engine's threads: at every yield point the calling
thread parks on a shared condition variable and waits until the
scheduler hands it the *turn*; exactly one thread runs between any two
scheduling decisions.  Which thread gets the turn is decided by a
:mod:`~repro.schedck.policies` policy, so the entire interleaving — and
therefore every memory operation order the engine performs — is a
deterministic function of the policy's seed.

Startup is gated: decisions begin only once ``expected_threads``
distinct threads (the ``n_workers`` match processes plus the control
thread) are parked, so the decision sequence does not depend on racy
thread start-up order and the policy's RNG stream is identical across
runs with the same seed.

Liveness rests on an engine property: every wait loop in
:mod:`repro.parallel` (spin-lock spin, empty-queue idle, TaskCount
quiescence poll) contains a yield point, so a thread that is blocked
still cedes the turn on every iteration and a cooperative run cannot
hard-deadlock.  Two backstops guard the harness itself: ``max_steps``
bounds the number of decisions (the run is marked truncated), and a
wall-clock deadline catches a run that wedges in a way the step bound
cannot see (e.g. mis-declared ``expected_threads``).  Either one ends
the run: every engine thread raises :class:`ScheduleExhausted` at its
next yield point, so a schedule that can never quiesce (a task stranded
on a queue nobody pops) comes back as a failing report instead of
polling TaskCount forever.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from ..parallel import hooks


class ScheduleExhausted(RuntimeError):
    """The cooperative run spent its decision budget or hit the
    harness's liveness deadline."""


class CooperativeScheduler:
    """Owns the turn; callable as the ``hooks`` yield hook.

    Parameters
    ----------
    policy:
        Object with ``choose(runnable, step) -> name`` where ``runnable``
        is a name-sorted list of ``(thread_name, label)`` pairs.
    expected_threads:
        Number of distinct threads that must park before the first
        decision (workers + control thread).
    max_steps:
        Decision budget; exceeding it marks the run ``truncated`` and
        ends it (:class:`ScheduleExhausted` in every thread).
    liveness_timeout:
        Wall-clock backstop in seconds; only pathological setups hit it.
    trace_limit:
        Keep at most this many ``(step, thread, label)`` entries in
        :attr:`trace` (the full log of a long run is rarely useful).
    """

    def __init__(
        self,
        policy,
        expected_threads: int,
        max_steps: int = 200_000,
        liveness_timeout: float = 60.0,
        trace_limit: int = 10_000,
    ) -> None:
        self.policy = policy
        self.expected_threads = expected_threads
        self.max_steps = max_steps
        self.liveness_timeout = liveness_timeout
        self.trace_limit = trace_limit
        self.steps = 0
        self.truncated = False
        self.trace: List[Tuple[int, str, str]] = []
        self._cond = threading.Condition()
        self._parked = {}  # thread name -> label
        self._current: Optional[str] = None
        self._active = False
        self._started = False
        self._deadline = 0.0
        #: Why the run was ended, once it has been; every thread that
        #: yields from then on raises :class:`ScheduleExhausted` with it.
        self._exhausted: Optional[str] = None

    # -- harness control (call from the control thread) ---------------------

    def activate(self) -> None:
        with self._cond:
            self._active = True
            self._started = False
            self._exhausted = None
            self._deadline = time.monotonic() + self.liveness_timeout

    def deactivate(self) -> None:
        with self._cond:
            # An ended run's parked threads each leave by raising: wait
            # for them, so that none runs on unscheduled past the end.
            while self._exhausted and self._parked:
                self._cond.wait(0.05)
            self._active = False
            self._current = None
            self._cond.notify_all()

    # -- hook protocol (called from engine threads) --------------------------

    def __call__(self, label: str, detail: object = None) -> None:
        me = threading.current_thread().name
        cond = self._cond
        with cond:
            if not self._active:
                return
            self._parked[me] = label
            if self._current == me:
                self._current = None
            if not self._started:
                if len(self._parked) >= self.expected_threads:
                    self._started = True
                    self._dispatch()
            elif self._current is None:
                self._dispatch()
            while self._active and self._current != me and not self._exhausted:
                if time.monotonic() > self._deadline:
                    self._exhaust(
                        f"no progress within {self.liveness_timeout}s "
                        f"(step {self.steps}, parked {sorted(self._parked)})"
                    )
                else:
                    cond.wait(0.05)
            self._parked.pop(me, None)
            if self._active and self._exhausted:
                cond.notify_all()
                raise ScheduleExhausted(self._exhausted)

    def thread_exit(self) -> None:
        """A match process died (poison or failure): retire it."""
        me = threading.current_thread().name
        with self._cond:
            self._parked.pop(me, None)
            if self._current == me:
                self._current = None
                if self._active and self._started and self._parked:
                    self._dispatch()

    # -- internals ------------------------------------------------------------

    def _exhaust(self, why: str) -> None:
        self._exhausted = why
        self._current = None
        self._cond.notify_all()

    def _dispatch(self) -> None:
        if not self._parked or self._exhausted:
            return
        if self.steps >= self.max_steps:
            self.truncated = True
            self._exhaust(f"decision budget of {self.max_steps} spent")
            return
        runnable = sorted(self._parked.items())
        choice = self.policy.choose(runnable, self.steps)
        if len(self.trace) < self.trace_limit:
            self.trace.append((self.steps, choice, self._parked[choice]))
        self.steps += 1
        self._current = choice
        self._cond.notify_all()


class HarnessSession:
    """Context manager tying a scheduler to the global yield hook.

    ``with HarnessSession(scheduler): ...`` installs the scheduler,
    activates it, and guarantees deactivation + uninstall on the way
    out even when the engine raises mid-schedule.
    """

    def __init__(self, scheduler: CooperativeScheduler) -> None:
        self.scheduler = scheduler

    def __enter__(self) -> CooperativeScheduler:
        hooks.install(self.scheduler)
        self.scheduler.activate()
        return self.scheduler

    def __exit__(self, *exc) -> None:
        self.scheduler.deactivate()
        hooks.uninstall()
