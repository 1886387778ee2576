"""A replayed task costs no Python frame of its own — guarded.

The simulator's model of a task is ~10 arithmetic operations; what a
replay costs on the host is how many Python frames it wraps around
them.  The event loop is one frame (``simulate``): an event
is a tuple on its heap, a queue or simple line lock is two numbers in
its locals and an MRSW line a six-slot list there, a task's costs are
list reads, and picking a push's queue is arithmetic on the pusher.
What is left is per replay or per WM change: deriving the trace's
columns (once per trace, :meth:`MatchTrace.columns`), pricing them
(once per configuration, :func:`task_columns`), and a change's
constant-test groups.  On the three configurations below that is
0.03 / 0.03 / 0.03 frames per task.  A closure per event, a ``push``
method, a dispatch call, a lock object or a per-lock stats object
re-introduced into the loop shows up here as frames per task (the
closure loop this replaced measured 17.7 / 18.9 / 25.3, the
``SimLock`` / ``SimMRSWLine`` pair behind MRSW 5.75), and fails a unit
test instead of a benchmark.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.ops5.interpreter import Interpreter
from repro.programs import weaver
from repro.rete.trace import TaskRecord, TraceRecorder
from repro.simulator.engine import simulate
from repro.simulator.machine import DEFAULT_CONFIG, task_columns, task_cost, task_cost_parts

PACKAGE = str(Path(repro.__file__).parent)


@pytest.fixture(scope="module")
def trace():
    recorder = TraceRecorder()
    Interpreter(weaver.source(grid=5, n_nets=1), recorder=recorder).run(max_cycles=40)
    return recorder.trace


def frames_per_task(trace, options):
    """``(package frames entered / tasks completed, frames by qualname)``
    of one replay, ``options`` being ``simulate``'s keyword arguments."""
    frames = Counter()

    def on_event(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            frames[frame.f_code.co_qualname] += 1

    sys.setprofile(on_event)
    try:
        result = simulate(trace, **options)
    finally:
        sys.setprofile(None)
    assert result.tasks_completed > trace.n_tasks > 5000      # not vacuous
    return sum(frames.values()) / result.tasks_completed, frames


@pytest.mark.parametrize("options, budget", [
    (dict(n_match=1, n_queues=1, pipelined=False), 0.1),
    (dict(n_match=7, n_queues=8), 0.1),
    (dict(n_match=13, n_queues=8, lock_scheme="mrsw"), 0.1),
], ids=["1-1-simple-serial", "7-8-simple", "13-8-mrsw"])
def test_a_replayed_task_stays_within_its_frame_budget(trace, options, budget):
    per_task, frames = frames_per_task(trace, options)
    assert per_task <= budget, frames.most_common(8)
    # The loop itself is entered once, and a push or a lock enters no
    # frame: nothing is entered anywhere near once per task.
    assert frames["simulate"] == 1
    assert not [name for name, n in frames.items() if n >= trace.n_tasks / 10]


def test_simple_locks_build_no_lock_object(trace):
    """What a replay enters at all: the loop, the derivations, and a
    change's constant-test groups — no lock model."""
    _per_task, frames = frames_per_task(trace, dict(n_match=13, n_queues=8))
    assert {name.split(".<locals>")[0] for name in frames} <= {
        "simulate", "SimOptions.__post_init__", "MatchTrace.columns", "TaskColumns.__init__",
        "task_columns", "alpha_tasks", "SimResult.__init__", "SpinStats.__init__",
    }, sorted(frames)


def test_a_trace_is_derived_once_and_priced_once_per_configuration():
    """Replays share the trace's columns; the cost columns are kept for
    the last configuration only, sharing scan/build across schemes; a
    grown trace is derived afresh, and the results never move."""
    recorder = TraceRecorder()
    Interpreter(weaver.source(grid=4, n_nets=1), recorder=recorder).run(max_cycles=20)
    trace = recorder.trace

    def replay(*args, config=DEFAULT_CONFIG):
        frames = Counter()

        def on_event(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
                frames[frame.f_code.co_qualname] += 1

        sys.setprofile(on_event)
        try:
            result = simulate(trace, *args, config=config)
        finally:
            sys.setprofile(None)
        return result, frames

    first, frames = replay(3, 1)
    columns = trace.columns()
    assert frames["TaskColumns.__init__"] == 1 and frames["task_columns"] == 1
    _, frames = replay(7, 8)
    assert frames["TaskColumns.__init__"] == 0 and trace.columns() is columns
    assert columns.costs[1] == "simple"
    _, scan, build = columns.costs[2:]
    replay(7, 8, "mrsw")
    assert columns.costs[1] == "mrsw" and columns.costs[3] is scan and columns.costs[4] is build
    cheaper = DEFAULT_CONFIG.with_overrides(join_base=30)
    replay(7, 8, config=cheaper)
    assert columns.costs[0] is cheaper and columns.costs[3] is not scan
    # Back on the default configuration: priced afresh, the same result.
    assert replay(3, 1)[0] == first and columns.costs[0] is DEFAULT_CONFIG

    trace.tasks.append(TaskRecord(trace.n_tasks, -1, "join", 1, "L", 1, 0, 0, 0, 0, 0))
    assert trace.columns() is not columns and trace.columns().n == columns.n + 1
    trace.tasks = trace.tasks[:-1]
    assert trace.columns().tasks is trace.tasks and trace.columns().n == columns.n


@pytest.mark.parametrize("scheme", ["simple", "mrsw"])
def test_columns_are_the_per_task_formulas(trace, scheme):
    """One cost formula in two shapes: ``task_columns`` against
    ``task_cost`` / ``task_cost_parts`` on every task of the trace."""
    cfg = DEFAULT_CONFIG.with_overrides(update_base=17, not_extra=11, term_cost=29)
    columns = trace.columns()
    first, scan, build = task_columns(columns, cfg, scheme)
    children = trace.children_index()
    locked = 0
    for task in trace.tasks:
        tid = task.tid
        assert columns.line[tid] == task.line and columns.is_left[tid] == (task.side == "L")
        assert list(columns.children[tid]) == children[tid]
        if task.kind == "term" or task.line < 0:
            assert first[tid] is None and build[tid] == task_cost(task, cfg)
            continue
        locked += 1
        update, scan_cost, build_cost = task_cost_parts(task, cfg)
        hold = update if scheme == "mrsw" else update + scan_cost + cfg.line_lock_hold_overhead
        assert (first[tid], scan[tid], build[tid]) == (hold, scan_cost, build_cost)
    assert {t.kind for t in trace.tasks} == {"join", "not", "term"}
    assert 0 < locked < trace.n_tasks
