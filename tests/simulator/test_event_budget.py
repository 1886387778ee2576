"""A replayed task costs no Python frame of its own — guarded.

The simulator's model of a task is ~10 arithmetic operations; what a
replay costs on the host is how many Python frames it wraps around
them.  The event loop is one frame (``EncoreSimulator.run``): an event
is a tuple on its heap, a queue or simple line lock is two numbers in
its locals, a task's costs are five list reads, and picking a push's
queue is arithmetic on the pusher.  What remains per task is, under
MRSW, the guard/mod ``SimLock`` pair behind ``SimMRSWLine`` (0.03 /
0.03 / 5.75 frames per task on the three configurations below).  A
closure per event, a ``push`` method, a dispatch call or a per-lock
stats object re-introduced into the loop shows up here as frames per
task (the closure loop this replaced measured 17.7 / 18.9 / 25.3), and
fails a unit test instead of a benchmark.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.ops5.interpreter import Interpreter
from repro.programs import weaver
from repro.rete.trace import TraceRecorder
from repro.simulator.engine import EncoreSimulator, SimOptions
from repro.simulator.machine import DEFAULT_CONFIG, task_columns, task_cost, task_cost_parts

PACKAGE = str(Path(repro.__file__).parent)


@pytest.fixture(scope="module")
def trace():
    recorder = TraceRecorder()
    Interpreter(weaver.source(grid=5, n_nets=1), recorder=recorder).run(max_cycles=40)
    return recorder.trace


def frames_per_task(trace, options):
    """``(package frames entered / tasks completed, frames by qualname)``."""
    frames = Counter()

    def on_event(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            frames[frame.f_code.co_qualname] += 1

    simulator = EncoreSimulator(trace, options)
    sys.setprofile(on_event)
    try:
        result = simulator.run()
    finally:
        sys.setprofile(None)
    assert result.tasks_completed > trace.n_tasks > 5000      # not vacuous
    return sum(frames.values()) / result.tasks_completed, frames


@pytest.mark.parametrize("options, budget", [
    (SimOptions(1, 1, pipelined=False), 0.1),
    (SimOptions(7, 8), 0.1),
    (SimOptions(13, 8, "mrsw"), 6),
], ids=["1-1-simple-serial", "7-8-simple", "13-8-mrsw"])
def test_a_replayed_task_stays_within_its_frame_budget(trace, options, budget):
    per_task, frames = frames_per_task(trace, options)
    assert per_task <= budget, frames.most_common(8)
    # The loop itself is entered once, and a push enters no frame: only
    # the MRSW line model is entered anywhere near once per task.
    assert frames["EncoreSimulator.run"] == 1
    per_task_frames = [
        name for name, n in frames.items()
        if n >= trace.n_tasks and not name.startswith(("SimLock", "SimMRSWLine"))
    ]
    assert not per_task_frames


def test_simple_locks_build_no_lock_object(trace):
    _per_task, frames = frames_per_task(trace, SimOptions(13, 8))
    assert not [name for name in frames if name.startswith(("SimLock", "SimMRSWLine"))]


@pytest.mark.parametrize("scheme", ["simple", "mrsw"])
def test_columns_are_the_per_task_formulas(trace, scheme):
    """One cost formula in two shapes: ``task_columns`` against
    ``task_cost`` / ``task_cost_parts`` on every task of the trace."""
    cfg = DEFAULT_CONFIG.with_overrides(update_base=17, not_extra=11, term_cost=29)
    line, is_left, first, scan, build = task_columns(trace.tasks, cfg, scheme)
    locked = 0
    for task in trace.tasks:
        tid = task.tid
        assert line[tid] == task.line and is_left[tid] == (task.side == "L")
        if task.kind == "term" or task.line < 0:
            assert first[tid] is None and build[tid] == task_cost(task, cfg)
            continue
        locked += 1
        update, scan_cost, build_cost = task_cost_parts(task, cfg)
        hold = update if scheme == "mrsw" else update + scan_cost + cfg.line_lock_hold_overhead
        assert (first[tid], scan[tid], build[tid]) == (hold, scan_cost, build_cost)
    assert {t.kind for t in trace.tasks} == {"join", "not", "term"}
    assert 0 < locked < trace.n_tasks
