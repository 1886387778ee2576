"""Engine registry: one place that knows how to build every matcher.

The interpreter, the CLI, the service layer, the perf scenarios, and
the conformance suite all pick match backends by name through this
module, so adding a fourth engine means adding one entry here (and one
fixture line in ``tests/conformance/``).

It is also the one place that knows how a command line becomes an
engine: :func:`add_engine_arguments` declares the flags,
:func:`engine_from_args` resolves them, and every program-running verb
goes through :func:`interpreter_from_args` — the paper's one control
process, parameterised.

Engines:

``sequential``
    :class:`~repro.rete.matcher.SequentialMatcher` — the paper's
    uniprocessor engine.  Options: ``memory``, ``n_lines``,
    ``recorder``.

``threaded``
    :class:`~repro.parallel.engine.ParallelMatcher` — thread-per-worker
    with per-line locks.  Demonstrates the paper's synchronization
    design under real interleavings but no speedup under the GIL.
    Options: ``n_workers``, ``n_queues``, ``lock_scheme``, ``n_lines``,
    ``policy`` (task dispatch, :data:`repro.parallel.policy.POLICY_NAMES`),
    ``watchdog_s``/``watchdog_dump`` (stall watchdog).

``mp``
    :class:`~repro.parallel.mp.engine.ProcessMatcher` —
    process-per-worker with shard-routed lines; the backend that can
    actually use multiple CPUs.  Options: ``n_workers``, ``n_lines``,
    ``policy`` (shard placement), ``watchdog_s``/``watchdog_dump``
    (stall watchdog).
    Requires the ``fork`` start method (see :func:`mp_supported`).

``corgi``
    :class:`~repro.corgi.engine.CorgiMatcher` — bounded-cost matching
    without beta memories: left/right unlinking, lazy (demand-driven)
    join evaluation and hoisted negation gates keep adversarial
    cross-product programs polynomial where Rete goes super-linear.
    Takes no options (it is sequential and memory-less by design).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Tuple

from .cli import Verb
from .rete.network import ReteNetwork

#: Every engine name accepted by ``make_matcher`` / ``--engine`` /
#: the serve ``open`` request, in documentation order.
ENGINE_NAMES: Tuple[str, ...] = ("sequential", "threaded", "mp", "corgi")


def mp_supported() -> bool:
    """Whether the ``mp`` engine can run on this platform."""
    from .parallel.mp import mp_supported as _supported

    return _supported()


#: The engines that run a worker pool — the only ones a dispatch /
#: placement ``policy`` or a stall watchdog means anything to.
POOL_ENGINES: Tuple[str, ...] = ("threaded", "mp")


def check_engine_opts(
    engine: str,
    *,
    policy: Optional[str] = None,
    watchdog_s: Optional[float] = None,
    memory: Optional[str] = None,
    n_queues: Optional[int] = None,
    lock_scheme: Optional[str] = None,
) -> None:
    """Every rule about which options an engine accepts, in one place.

    Raises ``ValueError`` naming the offending value; :func:`make_matcher`
    applies it, and :func:`engine_from_args` (every command line) and the
    serve ``open`` handler call it on their raw input; the front door
    and the server map the error to their own surface (``SystemExit``,
    ``bad-request``).  Options that are merely unused
    by an engine (``n_workers`` on sequential) are not errors; ones that
    would be a silent no-op the caller asked for by name are.
    """
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)}"
        )
    if policy is not None:
        from .parallel.policy import POLICY_NAMES

        if policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of "
                f"{', '.join(POLICY_NAMES)}"
            )
        if engine not in POOL_ENGINES:
            raise ValueError(
                f"policy {policy!r} requires a parallel engine "
                f"(threaded or mp), not {engine!r}"
            )
    if watchdog_s and engine not in POOL_ENGINES:
        raise ValueError(
            "a stall watchdog requires a parallel engine "
            f"(threaded or mp), not {engine!r}"
        )
    if memory == "linear" and engine != "sequential":
        raise ValueError(
            "memory 'linear' (--memory) requires the sequential engine, "
            f"not {engine!r}, which runs hash memories"
        )
    for name, flag, value in (
        ("n_queues", "--queues", n_queues), ("lock_scheme", "--locks", lock_scheme)
    ):
        if value is not None and engine != "threaded":
            raise ValueError(
                f"{name} ({flag}) requires the threaded engine, not {engine!r}"
            )
    if engine == "mp" and not mp_supported():
        raise ValueError(
            "engine 'mp' needs the 'fork' start method, which this "
            "platform lacks; use 'threaded' or 'sequential'"
        )


def make_matcher(
    engine: str,
    network: ReteNetwork,
    *,
    memory: str = "hash",
    n_lines: int = 1024,
    n_workers: int = 2,
    n_queues: Optional[int] = None,
    lock_scheme: Optional[str] = None,
    policy: Optional[str] = None,
    recorder=None,
    watchdog_s: Optional[float] = None,
    watchdog_dump: Optional[str] = None,
):
    """Build the named match backend over a compiled ``network``.

    Bad engine/option combinations raise ``ValueError``
    (:func:`check_engine_opts`), so CLI and serve-layer validation can
    simply try and re-raise.
    """
    check_engine_opts(
        engine, policy=policy, watchdog_s=watchdog_s,
        memory=memory, n_queues=n_queues, lock_scheme=lock_scheme,
    )
    if engine == "sequential":
        from .rete.matcher import SequentialMatcher

        return SequentialMatcher(
            network, memory=memory, n_lines=n_lines, recorder=recorder
        )
    if engine == "threaded":
        from .parallel.engine import ParallelMatcher

        return ParallelMatcher(
            network,
            n_workers=n_workers,
            n_queues=n_queues if n_queues is not None else 1,
            lock_scheme=lock_scheme if lock_scheme is not None else "simple",
            n_lines=n_lines,
            policy=policy if policy is not None else "round-robin",
            watchdog_s=watchdog_s,
            watchdog_dump=watchdog_dump,
        )
    if engine == "mp":
        from .parallel.mp import ProcessMatcher

        return ProcessMatcher(
            network,
            n_workers=n_workers,
            n_lines=n_lines,
            policy=policy if policy is not None else "round-robin",
            watchdog_s=watchdog_s,
            watchdog_dump=watchdog_dump,
        )
    from .corgi.engine import CorgiMatcher

    return CorgiMatcher(network)


# ---------------------------------------------------------------------------
# From a command line to a running engine


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine flags — declared here and nowhere else.  A default of
    ``None`` means "not given": the value stays :func:`make_matcher`'s."""
    g = parser.add_argument_group("engine")
    g.add_argument("--engine", choices=list(ENGINE_NAMES),
                   help="match backend (default sequential): threaded is GIL-bound, "
                        "mp forks one process per worker (real speedup, stitched "
                        "traces), corgi is the lazy bounded-cost matcher")
    g.add_argument("--workers", type=int,
                   help="match workers for --engine threaded/mp (default 2)")
    g.add_argument("--parallel", type=int, default=0, metavar="K",
                   help="shorthand for --engine threaded --workers K")
    g.add_argument("--queues", type=int,
                   help="task queues for --engine threaded (default 1)")
    g.add_argument("--locks", choices=["simple", "mrsw"],
                   help="line-lock scheme for --engine threaded (default simple)")
    g.add_argument("--policy",
                   help="dispatch/placement policy for --engine threaded/mp: "
                        "round-robin (default), affinity, least-loaded, "
                        "work-stealing, rebalance")
    g.add_argument("--memory", choices=["hash", "linear"],
                   help="token memories of the sequential engine (default hash)")
    g.add_argument("--strategy", choices=["lex", "mea"], default="lex",
                   help="conflict-resolution strategy")
    g.add_argument("--watchdog", type=float, metavar="S",
                   help="stall watchdog for threaded/mp: trip after S seconds "
                        "of pending work with no progress")
    g.add_argument("--watchdog-dump", metavar="FILE",
                   help="write the watchdog diagnostic bundle here on trip")


def engine_from_args(ns: argparse.Namespace) -> Tuple[str, Dict[str, object]]:
    """The ``(engine, engine_opts)`` the engine flags ask for; a bad
    combination is a ``ValueError`` (:func:`check_engine_opts`).

    ``--parallel K`` is resolved here — it *is* ``--engine threaded
    --workers K``, so any other explicit value contradicts it.
    """
    engine, workers = ns.engine, ns.workers
    if ns.parallel:
        if engine not in (None, "threaded") or workers not in (None, ns.parallel):
            raise ValueError(
                f"--parallel {ns.parallel} means --engine threaded --workers "
                f"{ns.parallel}; it cannot be combined with a different "
                "--engine or --workers"
            )
        engine, workers = "threaded", ns.parallel
    engine = engine or "sequential"
    check_engine_opts(
        engine, policy=ns.policy, watchdog_s=ns.watchdog,
        memory=ns.memory, n_queues=ns.queues, lock_scheme=ns.locks,
    )
    given = {
        "memory": ns.memory,
        "n_workers": workers,
        "n_queues": ns.queues,
        "lock_scheme": ns.locks,
        "policy": ns.policy,
        "watchdog_s": ns.watchdog or None,
        "watchdog_dump": ns.watchdog_dump,
    }
    return engine, {k: v for k, v in given.items() if v is not None}


def add_program_arguments(parser: argparse.ArgumentParser) -> None:
    """What every program-running verb takes: the program, the engine
    flags and the cycle budget."""
    from . import programs  # not at module level: serve start-up imports us

    parser.add_argument("file", metavar="PROGRAM",
                        help="program file, or builtin: " + " | ".join(programs.__all__))
    add_engine_arguments(parser)
    parser.add_argument("--max-cycles", type=int, default=100000)


def interpreter_from_args(ns: argparse.Namespace, **kwargs):
    """The interpreter a program-running command line asks for — the one
    construction ``run``, ``trace``, ``top`` and ``obs flight`` share."""
    from . import programs
    from .ops5.interpreter import Interpreter

    engine, engine_opts = engine_from_args(ns)
    program = programs.load(ns.file)
    with programs.named_errors(ns.file):  # semantic errors surface at compile
        return Interpreter(program, strategy=ns.strategy, engine=engine,
                           engine_opts=engine_opts, **kwargs)


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    add_program_arguments(p)
    p.add_argument("--mode", choices=["compiled", "interpreted"], default="compiled")
    p.add_argument("--stats", action="store_true",
                   help="print cycle and match counters to stderr")
    p.add_argument("--trace", action="store_true", help="list the firings on stderr")
    p.add_argument("--flight-dump", metavar="FILE",
                   help="write a flight-recorder snapshot here on unhandled "
                        "engine error")


def _run(args: argparse.Namespace) -> int:
    if args.flight_dump:
        from .obs import flight

        flight.set_dump_path(args.flight_dump)
    with interpreter_from_args(args, mode=args.mode) as interp:
        interp.timed = args.stats
        result = interp.run(max_cycles=args.max_cycles)
        watchdog = interp.matcher.watchdog
    if watchdog is not None and watchdog.tripped:
        print(
            f"repro run: watchdog tripped {watchdog.trips}x "
            f"(stuck queue: {watchdog.bundles[-1].get('stuck_queue')})",
            file=sys.stderr,
        )
    for line in result.output:
        print(line)
    if args.trace:
        print("\nfirings:", file=sys.stderr)
        for firing in result.firings:
            print(
                f"  {firing.cycle:5d}  {firing.production}  {firing.timetags}",
                file=sys.stderr,
            )
    if args.stats:
        stats = interp.stats
        print(
            f"\ncycles={result.cycles} halted={result.halted} "
            f"wm_changes={stats.wme_changes} "
            f"activations={stats.node_activations} "
            f"match_seconds={interp.phase_ns['match'] * 1e-9:.3f}",
            file=sys.stderr,
        )
    return 0


VERBS = {"run": Verb(
    "run",
    "Run an OPS5 program (a file or a builtin name) to halt, quiescence or "
    "--max-cycles on any match engine, and print its output.",
    _add_run_arguments, _run,
)}
