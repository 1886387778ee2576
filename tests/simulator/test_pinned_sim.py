"""Every ``SimResult`` field on every branch of the replay loop, pinned.

The paper's Tables 4-5…4-9 are ``SimResult`` numbers.  The goldens under
``benchmarks/reports`` and ``bench/golden`` only ever see the default
machine at a handful of configurations; ``pinned_sim.json`` holds what
the simulator produced (at ``066f382``, the closure-per-event loop) for
three small traces over the whole option grid — process/queue counts x
lock scheme x pipelining x hardware scheduler x ``overlap_cr`` — plus
one row per program with the two handoff knobs off their defaults.  A
change to the event loop, the lock models or the cost columns that
moves any field of any cell fails here.  Its ``weaver-full`` entry
replays the whole weaver trace at the 7-process configurations no
golden holds (MRSW, the spin means, the steals).

Regenerate (only when the machine model changes on purpose)::

    PYTHONPATH=src python tests/simulator/test_pinned_sim.py > tests/simulator/pinned_sim.json
"""

import json
from dataclasses import replace
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from repro.ops5.interpreter import Interpreter
from repro.programs import rubik, tourney, weaver
from repro.rete.trace import CycleRecord, MatchTrace, TraceRecorder
from repro.simulator.engine import simulate, uniprocessor_baseline
from repro.simulator.machine import DEFAULT_CONFIG

PINNED = Path(__file__).with_name("pinned_sim.json")

#: name -> (source, cycles kept, changes kept per cycle): windows small
#: enough that the ~1 000 replays fit tier-1, wide enough to hold adds,
#: deletes, not-nodes, terminals and (tourney) a contended line.
PROGRAMS = {
    "weaver": (lambda: weaver.source(grid=5, n_nets=1), range(2, 9), None),
    "rubik": (lambda: rubik.source(n_moves=4, seed=1988), (1, 2), 2),
    "tourney": (lambda: tourney.source(n_teams=4, n_rounds=3), None, None),
}
SHAPES = ((1, 1), (3, 1), (5, 4), (13, 8))
HANDOFFS = DEFAULT_CONFIG.with_overrides(queue_handoff=3, ttas_handoff=0)


def window(trace: MatchTrace, cycles, max_changes) -> MatchTrace:
    """The sub-trace of the given cycles (first ``max_changes`` changes
    of each), tids renumbered from zero."""
    if cycles is None:
        return trace
    children = trace.children_index()
    kept = [
        replace(trace.cycles[i], changes=trace.cycles[i].changes[:max_changes])
        for i in cycles
    ]
    tids = []
    stack = [tid for cycle in kept for ch in cycle.changes for tid in ch.first_level]
    while stack:
        tid = stack.pop()
        tids.append(tid)
        stack.extend(children[tid])
    new = {old: i for i, old in enumerate(sorted(tids))}
    out = MatchTrace()
    out.tasks = [
        trace.tasks[old]._replace(tid=i, parent=new.get(trace.tasks[old].parent, -1))
        for old, i in new.items()
    ]
    out.cycles = [
        CycleRecord(
            index=i, production=cycle.production, n_rhs_actions=cycle.n_rhs_actions,
            changes=[
                replace(ch, first_level=[new[t] for t in ch.first_level])
                for ch in cycle.changes
            ],
            cs_deltas=cycle.cs_deltas,
        )
        for i, cycle in enumerate(kept)
    ]
    return out


@lru_cache(maxsize=None)
def full_trace(program: str) -> MatchTrace:
    recorder = TraceRecorder()
    Interpreter(PROGRAMS[program][0](), recorder=recorder).run(max_cycles=5000)
    return recorder.trace


@lru_cache(maxsize=None)
def small_trace(program: str) -> MatchTrace:
    _source, cycles, max_changes = PROGRAMS[program]
    return window(full_trace(program), cycles, max_changes)


def row(trace: MatchTrace, *args, **kwargs) -> list:
    r = simulate(trace, *args, **kwargs)
    return [
        r.match_instr, r.total_instr, r.cycles, r.tasks_completed,
        *(v for s in (r.queue_stats, r.line_left, r.line_right)
          for v in (s.acquisitions, s.spins, s.requeues)),
        r.requeues, r.steals,
    ]


def observe(program: str, locks: str) -> dict:
    trace = small_trace(program)
    out = {}
    for (k, q), piped, hw, ocr in product(
        SHAPES, (True, False), (False, True), (False, True)
    ):
        out[f"{k}-{q} piped={piped:d} hw={hw:d} ocr={ocr:d}"] = row(
            trace, k, q, locks, piped, hardware_scheduler=hw, overlap_cr=ocr)
    out["5-4 handoffs"] = row(trace, 5, 4, locks, config=HANDOFFS)
    return out


def observe_full_weaver() -> dict:
    """The whole 5x1 weaver trace (20 168 tasks) at 7 match processes:
    the MRSW speed-up, the queue-lock (1 queue) and line-lock (8 queues)
    spin means, and the steals at 8 queues (the simple-lock speed-up is
    ``bench/golden/sim-weaver.json``'s)."""
    trace = full_trace("weaver")
    mrsw = uniprocessor_baseline(trace, lock_scheme="mrsw").match_instr
    run = simulate(trace, 7, 8)
    out = {
        "speedup_mrsw_1p7_8q": mrsw / simulate(trace, 7, 8, "mrsw").match_instr,
        "queue_spins_1p7_1q": simulate(trace, 7, 1).queue_stats.mean_spins,
        "line_spins_1p7_8q": run.line_left.mean_spins,
        "steals_1p7_8q": run.steals,
    }
    return dict(sorted(out.items()))


@pytest.mark.parametrize("locks", ("simple", "mrsw"))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_every_result_field_is_the_pinned_one(program, locks):
    pinned = json.loads(PINNED.read_text())[f"{program}-{locks}"]
    observed = observe(program, locks)
    assert observed.keys() == pinned.keys()
    moved = {cell: (pinned[cell], got) for cell, got in observed.items() if got != pinned[cell]}
    assert not moved


def test_the_full_weaver_trace_is_the_pinned_one():
    pinned = json.loads(PINNED.read_text())["weaver-full"]
    observed = observe_full_weaver()
    assert observed.keys() == pinned.keys()
    moved = {name: (pinned[name], got) for name, got in observed.items() if got != pinned[name]}
    assert not moved


def test_the_windows_are_not_vacuous():
    pinned = json.loads(PINNED.read_text())
    for program in PROGRAMS:
        trace = small_trace(program)
        assert 400 <= trace.n_tasks <= 1200
        assert {t.sign for t in trace.tasks} == {1, -1}
        assert {t.kind for t in trace.tasks} == {"join", "not", "term"}
    # The branches the default configuration never takes did run:
    # requeues under MRSW, steals, handoff-stretched holds.
    cells = pinned["tourney-mrsw"]
    assert cells["13-8 piped=1 hw=0 ocr=0"][13] > 0     # requeues
    assert cells["13-8 piped=1 hw=0 ocr=0"][14] > 0     # steals
    assert pinned["tourney-simple"]["5-4 handoffs"] != \
        pinned["tourney-simple"]["5-4 piped=1 hw=0 ocr=0"]


if __name__ == "__main__":
    cells = {
        f"{p}-{s}": observe(p, s) for p in sorted(PROGRAMS) for s in ("simple", "mrsw")
    }
    cells["weaver-full"] = observe_full_weaver()
    lines = [
        json.dumps(name) + ": {\n" + ",\n".join(
            f"  {json.dumps(cell)}: {json.dumps(values)}" for cell, values in rows.items()
        ) + "\n }"
        for name, rows in cells.items()
    ]
    print("{\n " + ",\n ".join(lines) + "\n}")
