"""Schedule policies: who gets the turn at each yield point.

A policy sees the name-sorted list of parked threads with the yield
label each is parked at, and returns the thread to run next.  All
policies are deterministic functions of their seed and the decision
sequence, which (thanks to the scheduler's start gate) is itself
deterministic — so a seed fully pins a schedule.

Two samplers:

* :class:`SeededRandomPolicy` — uniform random over runnable threads;
  the workhorse for broad differential fuzzing.
* :class:`PCTPolicy` — PCT-style random priorities (Burckhardt et al.,
  "A Randomized Scheduler with Probabilistic Guarantees of Finding
  Bugs"): run the highest-priority runnable thread, demoting the
  leader at ``depth - 1`` pre-sampled change points.  Finds
  ordering bugs that need a specific small number of preemptions with
  much higher probability than uniform random.

Between them they catch each hazard the §3.2 design guards against;
``tests/schedck/test_plants.py`` plants one defect per hazard and pins
the case that catches it.

Every policy carries the same livelock guard: a thread parked at a
*waiting* label (spin, idle, quiescence poll — see
:data:`repro.parallel.hooks.WAIT_LABELS`) is never chosen more than
``patience`` times in a row while a non-waiting thread is runnable,
since a waiting thread cannot make progress until somebody else does.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..parallel.hooks import WAIT_LABELS

Runnable = List[Tuple[str, str]]  # name-sorted (thread name, yield label)


class _GuardMixin:
    """Shared deterministic anti-livelock bookkeeping.

    After ``patience`` consecutive choices of threads parked at waiting
    labels, the guard overrides the policy: it picks a non-waiting
    thread if one exists, else rotates round-robin through the waiting
    set — so even a policy that would fixate on one spinning thread
    (e.g. PCT's priority leader polling an empty queue) makes global
    progress, deterministically.
    """

    patience = 8

    def __init__(self) -> None:
        self._wait_streak = 0
        self._rotor = 0

    def _guard(self, runnable: Runnable, choice: Tuple[str, str]) -> Tuple[str, str]:
        name, label = choice
        if label not in WAIT_LABELS:
            self._wait_streak = 0
            return choice
        self._wait_streak += 1
        if self._wait_streak <= self.patience:
            return choice
        busy = [r for r in runnable if r[1] not in WAIT_LABELS]
        pool = busy or runnable
        self._rotor += 1
        return pool[self._rotor % len(pool)]


class SeededRandomPolicy(_GuardMixin):
    """Uniform random choice over the runnable set."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.name = "random"
        self.rng = random.Random(seed)

    def choose(self, runnable: Runnable, step: int) -> str:
        if len(runnable) == 1:
            return runnable[0][0]
        return self._guard(runnable, self.rng.choice(runnable))[0]


class PCTPolicy(_GuardMixin):
    """Probabilistic-concurrency-testing priorities with change points."""

    def __init__(self, seed: int, depth: int = 3, horizon: int = 2000) -> None:
        super().__init__()
        self.name = f"pct:{depth}"
        self.rng = random.Random(seed)
        self.depth = depth
        self.horizon = horizon
        n_points = max(0, min(depth - 1, horizon - 1))
        self.change_points = frozenset(self.rng.sample(range(1, horizon), n_points))
        self._prio: Dict[str, int] = {}
        self._floor = 0

    def _priority(self, name: str) -> int:
        if name not in self._prio:
            # First decision sees the whole start-gated thread set at
            # once (name-sorted), so assignment order is deterministic.
            self._prio[name] = self.rng.randrange(1 << 20)
        return self._prio[name]

    def choose(self, runnable: Runnable, step: int) -> str:
        if len(runnable) == 1:
            return runnable[0][0]
        leader = max(runnable, key=lambda r: self._priority(r[0]))
        if step in self.change_points:
            # Demote the leader below everyone seen so far.
            self._floor -= 1
            self._prio[leader[0]] = self._floor
            leader = max(runnable, key=lambda r: self._priority(r[0]))
        return self._guard(runnable, leader)[0]


def make_policy(spec: str, seed: int):
    """Build a policy from its CLI spec string: ``random`` | ``pct`` |
    ``pct:<depth>`` with an integer depth of at least 1."""
    if spec == "random":
        return SeededRandomPolicy(seed)
    if spec == "pct":
        return PCTPolicy(seed)
    name, _, depth = spec.partition(":")
    if name == "pct" and depth.isdecimal() and int(depth) >= 1:
        return PCTPolicy(seed, depth=int(depth))
    raise ValueError(f"unknown schedule policy {spec!r}")


#: The sweep rotation: broad random, and preemption-targeted PCT.
DEFAULT_POLICIES = ("random", "pct")
