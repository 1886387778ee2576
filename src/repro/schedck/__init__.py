"""schedck — deterministic schedule exploration for the parallel engine.

The paper's correctness claim (§3.2) is that the PSM-E synchronization
design produces conflict sets identical to the sequential matcher's
*under any interleaving*.  The threaded engine in :mod:`repro.parallel`
can only exercise whatever interleavings the OS happens to produce;
this package takes ownership of the interleaving instead:

* :mod:`~repro.schedck.scheduler` — a cooperative scheduler that parks
  every engine thread at the yield points instrumented in
  :mod:`repro.parallel.hooks` and hands exactly one thread the turn at
  a time, so a run is a pure function of the schedule seed;
* :mod:`~repro.schedck.policies` — seeded-random and PCT-style
  random-priority schedule policies;
* :mod:`~repro.schedck.invariants` — the engine-side quiescence-point
  invariants (TaskCount, extra-deletes lists, token memory census,
  bounded amplification) on top of the conflict-set equality :mod:`repro.check` gives every
  battery;
* :mod:`~repro.schedck.progen` — a bounded random OPS5 program and
  working-memory workload generator for differential fuzzing;
* :mod:`~repro.schedck.runner` — the ``schedck`` battery registered
  with :mod:`repro.check`: single-schedule replay
  (``python -m repro check schedck --seed N``) and multi-schedule sweeps.
"""

from .invariants import memory_census
from .policies import make_policy
from .progen import ProgenParams, generate
from .runner import EngineConfig, run_schedule, sweep
from .scheduler import CooperativeScheduler, ScheduleExhausted

__all__ = [
    "CooperativeScheduler",
    "EngineConfig",
    "ProgenParams",
    "ScheduleExhausted",
    "generate",
    "make_policy",
    "memory_census",
    "run_schedule",
    "sweep",
]
