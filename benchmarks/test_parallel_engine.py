"""The real threaded engine: correctness under actual interleavings,
plus measured lock contention.

CPython's GIL makes wall-clock speed-up unobservable (DESIGN.md), so
this bench validates what the threads *can* demonstrate: identical
program behaviour to the sequential matcher at every worker count, and
live spin/contention counters from the PSM-E synchronization design.

The workloads here use shallow-chain rules on purpose: processing a
deep-chain rule's modify burst out of order lets a join transiently see
both the old and the new WME of an in-flight modify, multiplying token
combinations at every level of the chain — a real transient-work
explosion of parallel Rete on long chains (see EXPERIMENTS.md).  Rubik's
22-CE rotation rules are the pathological case, so the threaded bench
exercises Tourney and the classics instead.
"""

import pytest

from repro.harness.tables import render_table
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.parallel.engine import ParallelMatcher
from repro.programs import blocks, tourney
from repro.rete.network import ReteNetwork

pytestmark = pytest.mark.host_time  # real threads: spin counts vary per run


def _run_parallel(source: str, n_workers: int, n_queues: int, lock_scheme: str):
    program = parse_program(source)
    network = ReteNetwork.compile(program)
    matcher = ParallelMatcher(
        network,
        n_workers=n_workers,
        n_queues=n_queues,
        lock_scheme=lock_scheme,
        n_lines=128,
    )
    with Interpreter(program, matcher=matcher) as interp:
        result = interp.run(max_cycles=5000)
        return result, matcher.queue_lock_stats(), matcher.line_lock_stats()


@pytest.mark.parametrize("lock_scheme", ["simple", "mrsw"])
def test_parallel_engine_matches_sequential(emit, lock_scheme):
    source = tourney.source(n_teams=8, n_rounds=10)
    sequential = Interpreter(source).run(max_cycles=5000)

    result, qstats, lstats = _run_parallel(
        source, n_workers=3, n_queues=2, lock_scheme=lock_scheme
    )
    assert result.output[-1] == sequential.output[-1] == "scheduled 28 matches"
    assert result.halted
    emit(
        f"parallel_engine_{lock_scheme}",
        render_table(
            f"Threaded engine, Tourney (3 workers, 2 queues, {lock_scheme} locks)",
            ["metric", "value"],
            [
                ["queue-lock acquisitions", qstats.acquisitions],
                ["queue-lock mean spins", qstats.mean_spins],
                ["line-lock acquisitions", lstats.acquisitions],
                ["line-lock mean spins", lstats.mean_spins],
                ["line-lock requeues", lstats.requeues],
            ],
        ),
    )
    assert qstats.acquisitions > 100


def test_parallel_engine_blocks_world():
    """A multi-goal blocks world under real threads reaches the same
    final plan as the sequential engine."""
    source = blocks.source(
        blocks=(("a", "table"), ("b", "a"), ("c", "b"), ("d", "table")),
        goals=(("c", "d"), ("a", "c")),
    )
    sequential = Interpreter(source).run(max_cycles=500)

    result, _q, _l = _run_parallel(
        source, n_workers=4, n_queues=2, lock_scheme="simple"
    )
    assert result.output == sequential.output
    assert not any(line.startswith("error") for line in result.output)
