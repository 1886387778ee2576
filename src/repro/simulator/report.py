"""Analysis helpers over traces and simulation results.

These answer the diagnostic questions the paper's §4 discussion walks
through: how wide is the task DAG, what bounds the speed-up (work,
critical path, or a hot hash line), and where does a configuration's
time go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cli import Verb
from ..rete.trace import MatchTrace, TraceRecorder
from .engine import SimResult, simulate, uniprocessor_baseline
from .machine import DEFAULT_CONFIG, MachineConfig, alpha_tasks, task_cost


@dataclass
class TraceProfile:
    """Structural summary of a match trace."""

    n_cycles: int
    n_changes: int
    n_tasks: int
    total_work: float              # instructions across all tasks
    mean_task_cost: float
    max_chain_depth: int
    mean_tasks_per_change: float
    hot_lines: List[Tuple[int, float]]   # (line, summed held work), top N

    def dag_parallelism_bound(self, n_procs: int) -> float:
        """An upper bound on speed-up from work / critical structure."""
        return min(n_procs, self.n_tasks / max(self.n_cycles, 1))


def profile_trace(
    trace: MatchTrace, config: MachineConfig = DEFAULT_CONFIG, top_lines: int = 8
) -> TraceProfile:
    """Compute the structural profile of a trace."""
    children = trace.children_index()
    costs = [task_cost(t, config) for t in trace.tasks]
    total_work = float(sum(costs))

    # Depth via iterative DFS over each change's subtree.
    max_depth = 0
    for cycle in trace.cycles:
        for change in cycle.changes:
            stack = [(tid, 1) for tid in change.first_level]
            while stack:
                tid, depth = stack.pop()
                if depth > max_depth:
                    max_depth = depth
                stack.extend((c, depth + 1) for c in children[tid])

    line_work: Dict[int, float] = {}
    for task, cost in zip(trace.tasks, costs):
        if task.line >= 0:
            line_work[task.line] = line_work.get(task.line, 0.0) + cost
    hot = sorted(line_work.items(), key=lambda kv: -kv[1])[:top_lines]

    n_changes = max(trace.n_changes, 1)
    return TraceProfile(
        n_cycles=len(trace.cycles),
        n_changes=trace.n_changes,
        n_tasks=trace.n_tasks,
        total_work=total_work,
        mean_task_cost=total_work / max(trace.n_tasks, 1),
        max_chain_depth=max_depth,
        mean_tasks_per_change=trace.n_tasks / n_changes,
        hot_lines=hot,
    )


@dataclass
class SpeedupCurve:
    """Speed-ups across a process-count sweep for one configuration."""

    n_queues: int
    lock_scheme: str
    processes: Tuple[int, ...]
    speedups: Tuple[float, ...]
    baseline_seconds: float

    @property
    def saturation(self) -> float:
        """The best speed-up observed along the curve."""
        return max(self.speedups)


def speedup_curve(
    trace: MatchTrace,
    processes: Tuple[int, ...] = (1, 3, 5, 7, 11, 13),
    n_queues: int = 1,
    lock_scheme: str = "simple",
    config: MachineConfig = DEFAULT_CONFIG,
) -> SpeedupCurve:
    """Simulate the sweep the paper's speed-up tables report."""
    base = uniprocessor_baseline(trace, lock_scheme=lock_scheme, config=config)
    speedups = tuple(
        base.match_instr
        / simulate(
            trace, n_match=k, n_queues=n_queues, lock_scheme=lock_scheme, config=config
        ).match_instr
        for k in processes
    )
    return SpeedupCurve(
        n_queues=n_queues,
        lock_scheme=lock_scheme,
        processes=tuple(processes),
        speedups=speedups,
        baseline_seconds=base.match_seconds,
    )


@dataclass
class TimeBreakdown:
    """Where one simulated run's elapsed time went (per match process)."""

    match_instr: float
    task_work: float            # executing task bodies
    queue_overhead: float       # pop/push holds
    queue_waiting: float        # spin time at queue locks
    line_waiting: float         # spin time at line locks
    idle: float                 # everything else (starvation, ramps)

    @property
    def utilization(self) -> float:
        total = self.match_instr
        return self.task_work / total if total else 0.0


def time_breakdown(
    trace: MatchTrace,
    n_match: int,
    n_queues: int = 1,
    lock_scheme: str = "simple",
    config: MachineConfig = DEFAULT_CONFIG,
) -> TimeBreakdown:
    """Approximate accounting of a configuration's elapsed match time."""
    run = simulate(
        trace, n_match=n_match, n_queues=n_queues, lock_scheme=lock_scheme, config=config
    )
    total_capacity = run.match_instr * n_match
    task_work = float(sum(task_cost(t, config) for t in trace.tasks))
    for cycle in trace.cycles:
        for change in cycle.changes:
            task_work += sum(
                cost for cost, _k in alpha_tasks(
                    change.n_const_tests, len(change.first_level), config
                )
            )
    queue_ops = run.queue_stats.acquisitions
    queue_overhead = queue_ops * (config.queue_push + config.queue_pop) / 2.0
    queue_waiting = (
        (run.queue_stats.spins - queue_ops) * config.spin_period
        if queue_ops
        else 0.0
    )
    line_acqs = run.line_left.acquisitions + run.line_right.acquisitions
    line_spins = run.line_left.spins + run.line_right.spins
    line_waiting = max(line_spins - line_acqs, 0) * config.spin_period
    idle = max(total_capacity - task_work - queue_overhead - queue_waiting - line_waiting, 0.0)
    return TimeBreakdown(
        match_instr=total_capacity,
        task_work=task_work,
        queue_overhead=queue_overhead,
        queue_waiting=queue_waiting,
        line_waiting=line_waiting,
        idle=idle,
    )



def _add_simulate_arguments(p) -> None:
    p.add_argument("file", metavar="PROGRAM", help="program file or builtin name")
    p.add_argument("--processes", type=int, nargs="+", default=[1, 3, 7, 13],
                   help="match-process counts to simulate")
    p.add_argument("--queues", type=int, nargs="+", default=[1, 8],
                   help="task-queue counts to simulate")
    p.add_argument("--locks", choices=["simple", "mrsw"], default="simple")
    p.add_argument("--max-cycles", type=int, default=100000)


def _simulate(args) -> int:
    from .. import programs
    from ..ops5.interpreter import Interpreter

    recorder = TraceRecorder()
    program = programs.load(args.file)
    with programs.named_errors(args.file):
        interp = Interpreter(program, recorder=recorder)
    result = interp.run(max_cycles=args.max_cycles)
    print(f"run: {result.cycles} cycles, {recorder.trace.n_tasks} match tasks")
    base = uniprocessor_baseline(recorder.trace, lock_scheme=args.locks)
    print(f"uniprocessor match (simulated Encore Multimax): {base.match_seconds:.3f}s")
    print(f"{'config':>12} {'speed-up':>9} {'queue spins':>12}")
    for k in args.processes:
        for q in args.queues:
            run = simulate(recorder.trace, n_match=k, n_queues=q, lock_scheme=args.locks)
            print(
                f"{f'1+{k}/{q}q':>12} "
                f"{base.match_instr / run.match_instr:>9.2f} "
                f"{run.queue_stats.mean_spins:>12.2f}"
            )
    return 0


VERBS = {"simulate": Verb(
    "simulate",
    "Run a program on the sequential engine, record its match-task trace, and "
    "simulate it on the Encore Multimax across a grid of match-process and "
    "task-queue counts.",
    _add_simulate_arguments, _simulate,
)}
