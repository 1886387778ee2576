"""Unit and integration tests for the Encore discrete-event simulator."""

import pytest

from repro.ops5.interpreter import Interpreter
from repro.rete.trace import MatchTrace, TraceRecorder
from repro.simulator.engine import SimOptions, simulate, uniprocessor_baseline
from repro.simulator.machine import DEFAULT_CONFIG
from tests.conftest import FIND_COLORED_BLOCK

CHAIN_PROGRAM = """
(p step (tick ^n <n>) (cell ^i <n> ^v <v>) --> (modify 2 ^v done) (remove 1))
(p next (cell ^i <i> ^v done) (cell ^i <j> ^v wait) --> (make tick ^n <j>) (modify 1 ^v used))
(startup
  (make cell ^i 1 ^v wait) (make cell ^i 2 ^v wait) (make cell ^i 3 ^v wait)
  (make tick ^n 1))
"""


@pytest.fixture(scope="module")
def small_trace():
    recorder = TraceRecorder()
    Interpreter(FIND_COLORED_BLOCK, recorder=recorder).run()
    return recorder.trace


@pytest.fixture(scope="module")
def chain_trace():
    recorder = TraceRecorder()
    Interpreter(CHAIN_PROGRAM, recorder=recorder).run(max_cycles=100)
    return recorder.trace


class TestSimOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimOptions(n_match=0)
        with pytest.raises(ValueError):
            SimOptions(n_queues=0)
        with pytest.raises(ValueError):
            SimOptions(lock_scheme="rcu")
        # The replay checks its arguments the same way before it starts.
        with pytest.raises(ValueError, match="at least one task queue"):
            simulate(MatchTrace(), n_match=2, n_queues=0)


class TestBasicRuns:
    def test_all_tasks_complete(self, small_trace):
        result = simulate(small_trace, n_match=2)
        assert result.tasks_completed >= small_trace.n_tasks
        assert result.match_instr > 0
        assert result.total_instr > result.match_instr

    def test_deterministic(self, small_trace):
        a = simulate(small_trace, n_match=3, n_queues=2)
        b = simulate(small_trace, n_match=3, n_queues=2)
        assert a.match_instr == b.match_instr
        assert a.queue_stats.spins == b.queue_stats.spins

    def test_baseline_slower_than_pipelined(self, small_trace):
        base = uniprocessor_baseline(small_trace)
        piped = simulate(small_trace, n_match=1, pipelined=True)
        # Pipelining overlaps RHS evaluation with match, so the match
        # phase cannot be slower than the serial baseline by more than
        # release jitter.
        assert piped.match_instr <= base.match_instr * 1.05

    def test_more_processors_not_slower_moderately(self, chain_trace):
        t1 = simulate(chain_trace, n_match=1).match_instr
        t4 = simulate(chain_trace, n_match=4, n_queues=2).match_instr
        assert t4 <= t1

    def test_mrsw_scheme_runs(self, small_trace):
        result = simulate(small_trace, n_match=3, lock_scheme="mrsw")
        assert result.tasks_completed >= small_trace.n_tasks

    def test_seconds_properties(self, small_trace):
        result = simulate(small_trace, n_match=1)
        assert result.match_seconds == pytest.approx(
            result.match_instr / (DEFAULT_CONFIG.mips * 1e6)
        )


class TestContentionAccounting:
    def test_single_process_never_contends(self, small_trace):
        result = simulate(small_trace, n_match=1)
        # One match process + the control process can still interleave
        # on queue locks, but spins stay at the no-wait floor.
        assert result.queue_stats.mean_spins < 2.5
        assert result.line_left.mean_spins <= 1.1

    def test_queue_contention_grows_with_processes(self, chain_trace):
        spins = [
            simulate(chain_trace, n_match=k, n_queues=1).queue_stats.mean_spins
            for k in (1, 4, 8)
        ]
        assert spins[0] <= spins[-1]

    def test_side_attribution(self, small_trace):
        result = simulate(small_trace, n_match=2)
        assert result.line_left.acquisitions + result.line_right.acquisitions > 0


class TestAccountingInvariants:
    def test_work_conservation_across_configs(self, small_trace):
        """Every configuration executes exactly the traced task set."""
        counts = {
            simulate(small_trace, n_match=k, n_queues=q, lock_scheme=s).tasks_completed
            for k, q, s in [(1, 1, "simple"), (5, 2, "simple"), (3, 4, "mrsw")]
        }
        assert len(counts) == 1

    def test_empty_trace(self):
        result = simulate(MatchTrace(), n_match=4)
        assert result.match_instr == 0
        assert result.tasks_completed == 0

    def test_config_override_threading(self, small_trace):
        cfg = DEFAULT_CONFIG.with_overrides(join_base=400)
        heavy = simulate(small_trace, n_match=1, config=cfg)
        light = simulate(small_trace, n_match=1)
        assert heavy.match_instr > light.match_instr
