"""schedck: the threaded engine under a schedule the harness owns.

The battery's share of a :mod:`repro.check` lockstep run: from one seed
:func:`run_schedule` derives a random program + workload (or takes a
pinned one) and drives the threaded
:class:`~repro.parallel.engine.ParallelMatcher` through it *under the
cooperative scheduler*, adding the engine-side invariants (TaskCount,
parked deletes, token-memory census, bounded amplification) to the
shared conflict-set check at every quiescence point.  The report is
deterministic text: the same seed and configuration produce a
byte-identical report, which is what lets a CI failure line be replayed
locally with ``python -m repro check schedck --seed N``.

:func:`sweep` fans one seed range out over the engine-configuration
grid (workers × queues × lock scheme) and the policy rotation — the
differential fuzzing loop.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import check
from ..ops5.wme import WMEChange
from ..parallel.engine import ParallelMatcher
from ..parallel.policy import POLICY_NAMES
from . import progen
from .invariants import (
    check_amplification, check_census, check_quiescence, memory_census,
)
from .policies import DEFAULT_POLICIES, make_policy
from .scheduler import CooperativeScheduler, HarnessSession
from .workloads import WORKLOADS


@dataclass(frozen=True)
class EngineConfig:
    """One point on the paper's experimental axes.

    ``dispatch`` is the task-dispatch policy
    (:data:`repro.parallel.policy.POLICY_NAMES`) — *which queue a push
    lands on* — and is deliberately a separate axis from the harness's
    thread-schedule policy (``--policy``), which decides *which thread
    runs next*.  The same seed under the same thread schedule can be
    replayed against every dispatch policy
    (``tests/schedck/test_conjugate_storm.py``).
    """

    n_workers: int = 2
    n_queues: int = 1
    lock_scheme: str = "simple"
    n_lines: int = 64
    dispatch: str = "round-robin"

    def describe(self) -> str:
        base = (
            f"1+{self.n_workers}/{self.n_queues}q/"
            f"{self.lock_scheme}/{self.n_lines}l"
        )
        # The historical default stays spelled the historical way so
        # pinned report strings (and CI log greps) keep matching.
        if self.dispatch != "round-robin":
            base += f"/{self.dispatch}"
        return base

    def flags(self) -> Dict[str, object]:
        """This config as ``repro check schedck`` flag values."""
        return {
            "workers": self.n_workers,
            "queues": self.n_queues,
            "locks": self.lock_scheme,
            "lines": self.n_lines,
            "dispatch": self.dispatch,
        }


#: The acceptance-criteria grid: n_workers × n_queues × lock_scheme
#: under the default dispatch, plus every other dispatch policy at one
#: queue per worker so the sweep exercises each dispatch path under
#: schedule fuzz.
DEFAULT_GRID: Tuple[EngineConfig, ...] = tuple(
    EngineConfig(n_workers=w, n_queues=q, lock_scheme=s)
    for w in (1, 2, 4)
    for q in (1, 4)
    for s in ("simple", "mrsw")
) + tuple(
    EngineConfig(n_workers=2, n_queues=2, dispatch=d)
    for d in POLICY_NAMES
    if d != "round-robin"
)


def run_schedule(
    seed: int,
    config: EngineConfig = EngineConfig(),
    policy_spec: str = "random",
    workload: Optional[str] = None,
    program: Optional[str] = None,
    batches: Optional[List[List[WMEChange]]] = None,
    params: progen.ProgenParams = progen.ProgenParams(),
    max_steps: int = 200_000,
) -> check.Report:
    """Run one seeded schedule differentially; never raises for engine
    misbehaviour — failures come back as report findings.  ``workload``
    names a pinned :data:`~repro.schedck.workloads.WORKLOADS` fixture;
    ``program`` + ``batches`` pin one that has no name (and therefore no
    replay line)."""
    if workload is not None:
        if workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r}; expected one of "
                f"{', '.join(sorted(WORKLOADS))}"
            )
        program, batches = WORKLOADS[workload]()
    load = check.workload(seed, params, program, batches)
    net = load.compile()
    policy = make_policy(policy_spec, seed)
    scheduler = CooperativeScheduler(
        policy, expected_threads=config.n_workers + 1, max_steps=max_steps
    )
    with HarnessSession(scheduler):
        matcher = ParallelMatcher(
            net,
            n_workers=config.n_workers,
            n_queues=config.n_queues,
            lock_scheme=config.lock_scheme,
            n_lines=config.n_lines,
            policy=config.dispatch,
        )

        def invariants(bi, _batch, oracle):
            return (
                check_quiescence(bi, matcher)
                + check_census(
                    bi,
                    memory_census(matcher.memory),
                    memory_census(oracle.memory),
                )
                + check_amplification(bi, matcher.stats, oracle.stats)
            )

        try:
            findings, oracle = check.lockstep(load, matcher, invariants)
        finally:
            scheduler.deactivate()
            matcher.close()

    args = {
        "seed": seed, "policy": policy.name, **config.flags(),
        "workload": workload, "max_steps": max_steps,
    }
    replayable = workload is not None or program is None
    return check.Report(
        battery="schedck",
        label=[("seed", seed), ("policy", policy.name), ("config", config.describe())],
        args=args if replayable else None,
        findings=findings,
        body=[
            load.describe(),
            f"schedule: {scheduler.steps} decisions"
            + (" (truncated)" if scheduler.truncated else ""),
        ],
        stats=[
            ("node_activations.seq", oracle.stats.node_activations),
            ("node_activations.par", matcher.stats.node_activations),
            ("tokens_emitted.seq", oracle.stats.tokens_emitted),
            ("tokens_emitted.par", matcher.stats.tokens_emitted),
            ("conjugate.parked", matcher.memory.parked_total),
            ("conjugate.annihilated", matcher.memory.annihilations),
            ("line_lock.requeues", matcher.line_lock_stats().requeues),
        ],
        truncated=scheduler.truncated,
        # Steal attribution depends on pop/wakeup timing even under the
        # cooperative scheduler, so it stays out of the printed stats.
        telemetry=[
            ("queue.steals", matcher.queues.stolen),
            ("policy.rebalances", matcher.policy.rebalances),
        ],
    )


def sweep(
    n_schedules: int,
    base_seed: int = 0,
    configs: Sequence[EngineConfig] = DEFAULT_GRID,
    policies: Sequence[str] = DEFAULT_POLICIES,
    params: progen.ProgenParams = progen.ProgenParams(),
    max_steps: int = 200_000,
) -> check.Sweep:
    """Run ``n_schedules`` seeds round-robin over configs × policies."""
    reports = [
        run_schedule(
            base_seed + i,
            config=configs[i % len(configs)],
            policy_spec=policies[(i // len(configs)) % len(policies)],
            params=params,
            max_steps=max_steps,
        )
        for i in range(n_schedules)
    ]
    return check.Sweep(
        "schedck", "sweep", "schedules", reports,
        also=[(sum(r.truncated for r in reports), "truncated")],
    )


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="schedule seed (sweep: first seed of the range)")
    p.add_argument("--policy", default="random",
                   help="random | pct[:depth] | adversarial:{delay-plus,"
                        "delay-deletes,starve-quiescence,starve-worker}")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queues", type=int, default=1)
    p.add_argument("--locks", choices=["simple", "mrsw"], default="simple")
    p.add_argument("--lines", type=int, default=64)
    p.add_argument("--dispatch", default="round-robin",
                   help="task-dispatch policy (round-robin, affinity, "
                        "least-loaded, work-stealing, rebalance) — "
                        "distinct from --policy, which picks the "
                        "thread schedule")
    p.add_argument("--workload", default=None, metavar="NAME",
                   help="replay a pinned workload (deep-chain, "
                        "conjugate-storm) instead of generating one "
                        "from the seed")
    p.add_argument("--sweep", type=int, default=0, metavar="N",
                   help="fuzz N seeds across the config/policy grid")
    p.add_argument("--max-steps", type=int, default=200_000)


def _run(args: argparse.Namespace):
    if args.sweep:
        return sweep(args.sweep, base_seed=args.seed, max_steps=args.max_steps)
    config = EngineConfig(
        n_workers=args.workers,
        n_queues=args.queues,
        lock_scheme=args.locks,
        n_lines=args.lines,
        dispatch=args.dispatch,
    )
    return run_schedule(
        args.seed, config=config, policy_spec=args.policy,
        workload=args.workload, max_steps=args.max_steps,
    )


VERBS = {"schedck": check.battery(
    "schedck",
    "deterministic schedule exploration of the threaded parallel engine",
    _add_arguments, _run,
)}
