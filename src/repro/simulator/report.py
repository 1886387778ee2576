"""The paper's speed-up ladder over a recorded trace, and the
``simulate`` verb that prints it."""

from __future__ import annotations

from argparse import ArgumentTypeError
from dataclasses import dataclass
from typing import Tuple

from ..cli import Verb
from ..rete.trace import MatchTrace, TraceRecorder
from .engine import SimResult, simulate, uniprocessor_baseline
from .machine import DEFAULT_CONFIG, MachineConfig


@dataclass
class SpeedupCurve:
    """A process-count sweep of one queue count and lock scheme, each
    run set against the uniprocessor run of the same lock scheme."""

    baseline: SimResult
    runs: Tuple[SimResult, ...]

    @property
    def lock_scheme(self) -> str:
        return self.baseline.options.lock_scheme

    @property
    def speedups(self) -> Tuple[float, ...]:
        return tuple(self.baseline.match_instr / run.match_instr for run in self.runs)

    @property
    def baseline_seconds(self) -> float:
        return self.baseline.match_seconds

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
    return SpeedupCurve(
        baseline=uniprocessor_baseline(trace, lock_scheme=lock_scheme, config=config),
        runs=tuple(
            simulate(trace, n_match=k, n_queues=n_queues, lock_scheme=lock_scheme,
                     config=config)
            for k in processes
        ),
    )


def count(text: str) -> int:
    """A process or queue count, refused below 1 before a run is recorded."""
    value = int(text)
    if value < 1:
        raise ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_simulate_arguments(p) -> None:
    p.add_argument("file", metavar="PROGRAM", help="program file or builtin name")
    p.add_argument("--processes", type=count, nargs="+", default=[1, 3, 7, 13],
                   help="match-process counts to simulate")
    p.add_argument("--queues", type=count, nargs="+", default=[1, 8],
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
    curves = [
        speedup_curve(recorder.trace, tuple(args.processes), n_queues=q,
                      lock_scheme=args.locks)
        for q in args.queues
    ]
    print(f"uniprocessor match (simulated Encore Multimax): "
          f"{curves[0].baseline_seconds:.3f}s")
    print(f"{'config':>12} {'speed-up':>9} {'queue spins':>12}")
    for i, k in enumerate(args.processes):
        for q, curve in zip(args.queues, curves):
            print(
                f"{f'1+{k}/{q}q':>12} "
                f"{curve.speedups[i]:>9.2f} "
                f"{curve.runs[i].queue_stats.mean_spins:>12.2f}"
            )
    return 0


VERBS = {"simulate": Verb(
    "simulate",
    "Run a program on the sequential engine, record its match-task trace, and "
    "simulate it on the Encore Multimax across a grid of match-process and "
    "task-queue counts.",
    _add_simulate_arguments, _simulate,
)}
