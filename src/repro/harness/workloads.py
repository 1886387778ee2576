"""Benchmark workloads: the three programs at reproducible sizes, with
cached traces and cached simulation results.

Traces are expensive to record (a full interpreted run of the program)
and each paper table slices the same handful of simulations, so both
are memoized per process.  ``bench`` sizes are chosen so the whole
table suite regenerates in a couple of minutes while preserving the
per-change match statistics that drive every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ops5.interpreter import Interpreter
from ..rete.trace import MatchTrace, TraceRecorder
from ..simulator.engine import SimResult, simulate
from ..simulator.machine import DEFAULT_CONFIG, MachineConfig
from ..programs import rubik, tourney, weaver

#: Benchmark sizes (kept modest; statistics per change match the full
#: sizes, see DESIGN.md).
BENCH_SIZES = {
    "weaver": dict(grid=9, n_nets=2),
    "rubik": dict(n_moves=10),
    "tourney": dict(),
    "tourney_fixed": dict(),
}


def program_source(name: str) -> str:
    if name == "weaver":
        return weaver.source(**BENCH_SIZES["weaver"])
    if name == "rubik":
        return rubik.source(**BENCH_SIZES["rubik"])
    if name == "tourney":
        return tourney.source(**BENCH_SIZES["tourney"])
    if name == "tourney_fixed":
        return tourney.fixed_source(**BENCH_SIZES["tourney_fixed"])
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class WorkloadRun:
    """A completed instrumented run of one workload."""

    name: str
    trace: MatchTrace
    stats: object            # MatchStats of the run
    cycles: int
    output: Tuple[str, ...]


_trace_cache: Dict[str, WorkloadRun] = {}
_sim_cache: Dict[tuple, SimResult] = {}
_timing_cache: Dict[tuple, Tuple[float, object]] = {}
_stats_cache: Dict[tuple, object] = {}


def traced_run(name: str, max_cycles: int = 50000) -> WorkloadRun:
    """Run the workload once with trace recording (memoized)."""
    cached = _trace_cache.get(name)
    if cached is not None:
        return cached
    recorder = TraceRecorder()
    interp = Interpreter(program_source(name), recorder=recorder)
    result = interp.run(max_cycles=max_cycles)
    run = WorkloadRun(
        name=name,
        trace=recorder.trace,
        stats=interp.stats,
        cycles=result.cycles,
        output=tuple(result.output),
    )
    _trace_cache[name] = run
    return run


def timed_run(
    name: str, memory: str, mode: str, max_cycles: int = 50000
) -> Tuple[float, object]:
    """Wall-clock a run under the given memory/evaluation mode
    (no trace recording — recording would distort the timing).

    Returns ``(seconds, MatchStats)``, memoized.
    """
    key = (name, memory, mode)
    cached = _timing_cache.get(key)
    if cached is not None:
        return cached
    # Match time only (the interpreter's phase ledger) — the paper's
    # uniprocessor comparisons exclude conflict resolution and RHS
    # evaluation.  Best-of-two runs damps host scheduling noise.
    best = None
    for _attempt in range(2):
        interp = Interpreter(program_source(name), memory=memory, mode=mode)
        interp.timed = True
        interp.run(max_cycles=max_cycles)
        seconds = interp.phase_ns["match"] * 1e-9
        if best is None or seconds < best[0]:
            best = (seconds, interp.stats)
    _timing_cache[key] = best
    return best


def counted_run(name: str, memory: str, max_cycles: int = 50000):
    """The ``MatchStats`` of one untimed compiled run (memoized): what
    the tables that print no seconds are built from."""
    key = (name, memory)
    stats = _stats_cache.get(key)
    if stats is None:
        interp = Interpreter(program_source(name), memory=memory)
        interp.run(max_cycles=max_cycles)
        stats = _stats_cache[key] = interp.stats
    return stats


def sim(
    name: str,
    n_match: int,
    n_queues: int = 1,
    lock_scheme: str = "simple",
    pipelined: bool = True,
    config: Optional[MachineConfig] = None,
) -> SimResult:
    """Simulate the workload's trace under one configuration (memoized)."""
    config = config or DEFAULT_CONFIG
    key = (name, n_match, n_queues, lock_scheme, pipelined, config)
    cached = _sim_cache.get(key)
    if cached is not None:
        return cached
    trace = traced_run(name).trace
    result = simulate(
        trace,
        n_match=n_match,
        n_queues=n_queues,
        lock_scheme=lock_scheme,
        pipelined=pipelined,
        config=config,
    )
    _sim_cache[key] = result
    return result


def baseline(name: str, lock_scheme: str = "simple", config: Optional[MachineConfig] = None) -> SimResult:
    """The paper's uniprocessor column: one match process, no
    pipelining, all the parallel machinery's overheads."""
    return sim(name, n_match=1, n_queues=1, lock_scheme=lock_scheme, pipelined=False, config=config)


def speedup(
    name: str,
    n_match: int,
    n_queues: int,
    lock_scheme: str = "simple",
    config: Optional[MachineConfig] = None,
) -> float:
    """Speed-up of a configuration relative to the uniprocessor run
    with the same lock scheme (matching the paper's methodology)."""
    base = baseline(name, lock_scheme=lock_scheme, config=config)
    run = sim(name, n_match=n_match, n_queues=n_queues, lock_scheme=lock_scheme, config=config)
    return base.match_instr / run.match_instr


def clear_caches() -> None:
    _trace_cache.clear()
    _sim_cache.clear()
    _timing_cache.clear()
    _stats_cache.clear()
