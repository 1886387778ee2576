"""The ``simulate`` verb: the paper's speed-up ladder over a recorded
trace, each cell set against the uniprocessor run of its lock scheme."""

from __future__ import annotations

from argparse import ArgumentTypeError

from ..cli import Verb
from ..rete.trace import TraceRecorder
from .engine import simulate, uniprocessor_baseline


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
    base = uniprocessor_baseline(recorder.trace, lock_scheme=args.locks)
    print(f"uniprocessor match (simulated Encore Multimax): {base.match_seconds:.3f}s")
    print(f"{'config':>12} {'speed-up':>9} {'queue spins':>12}")
    for k in args.processes:
        for q in args.queues:
            run = simulate(recorder.trace, k, q, lock_scheme=args.locks)
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
