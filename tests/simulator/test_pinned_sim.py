"""Every ``SimResult`` field on every branch of the replay loop, pinned.

The paper's Tables 4-5…4-9 are ``SimResult`` numbers.  The goldens under
``benchmarks/reports`` and ``BENCH_smoke.json`` only ever see the default
machine at a handful of configurations; ``pinned_sim.json`` holds what
the simulator produced (at ``066f382``, the closure-per-event loop) for
three small traces over the whole option grid — process/queue counts x
lock scheme x pipelining x hardware scheduler x ``overlap_cr`` x every
dispatch policy — plus one row per program with the two handoff knobs
off their defaults.  A change to the event loop, the lock models or the
cost columns that moves any field of any cell fails here.

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
from repro.parallel.policy import POLICY_NAMES
from repro.programs import rubik, tourney, weaver
from repro.rete.trace import CycleRecord, MatchTrace, TraceRecorder
from repro.simulator.engine import EncoreSimulator, SimOptions
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
        replace(trace.tasks[old], tid=i, parent=new.get(trace.tasks[old].parent, -1))
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
def small_trace(program: str) -> MatchTrace:
    source, cycles, max_changes = PROGRAMS[program]
    recorder = TraceRecorder()
    Interpreter(source(), recorder=recorder).run(max_cycles=5000)
    return window(recorder.trace, cycles, max_changes)


def row(trace: MatchTrace, options: SimOptions, config=DEFAULT_CONFIG) -> list:
    r = EncoreSimulator(trace, options, config).run()
    return [
        r.match_instr, r.total_instr, r.cycles, r.tasks_completed,
        *(v for s in (r.queue_stats, r.line_left, r.line_right)
          for v in (s.acquisitions, s.spins, s.requeues)),
        r.requeues, r.steals, r.rebalances,
    ]


def observe(program: str, locks: str) -> dict:
    trace = small_trace(program)
    out = {}
    for (k, q), piped, hw, ocr, policy in product(
        SHAPES, (True, False), (False, True), (False, True), POLICY_NAMES
    ):
        options = SimOptions(k, q, locks, piped, hw, ocr, policy)
        out[f"{k}-{q} piped={piped:d} hw={hw:d} ocr={ocr:d} {policy}"] = row(trace, options)
    out["5-4 handoffs"] = row(trace, SimOptions(5, 4, locks), HANDOFFS)
    return out


@pytest.mark.parametrize("locks", ("simple", "mrsw"))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_every_result_field_is_the_pinned_one(program, locks):
    pinned = json.loads(PINNED.read_text())[f"{program}-{locks}"]
    observed = observe(program, locks)
    assert observed.keys() == pinned.keys()
    moved = {cell: (pinned[cell], got) for cell, got in observed.items() if got != pinned[cell]}
    assert not moved


def test_the_windows_are_not_vacuous():
    pinned = json.loads(PINNED.read_text())
    for program in PROGRAMS:
        trace = small_trace(program)
        assert 400 <= trace.n_tasks <= 1200
        assert {t.sign for t in trace.tasks} == {1, -1}
        assert {t.kind for t in trace.tasks} == {"join", "not", "term"}
    # The branches the default configuration never takes did run:
    # requeues under MRSW, steals, rebalances, handoff-stretched holds.
    cells = pinned["tourney-mrsw"]
    assert cells["13-8 piped=1 hw=0 ocr=0 work-stealing"][13] > 0     # requeues
    assert cells["13-8 piped=1 hw=0 ocr=0 work-stealing"][14] > 0     # steals
    assert any(r[15] for r in pinned["weaver-simple"].values())      # rebalances
    assert pinned["tourney-simple"]["5-4 handoffs"] != \
        pinned["tourney-simple"]["5-4 piped=1 hw=0 ocr=0 work-stealing"]


if __name__ == "__main__":
    cells = {
        f"{p}-{s}": observe(p, s) for p in sorted(PROGRAMS) for s in ("simple", "mrsw")
    }
    lines = [
        json.dumps(name) + ": {\n" + ",\n".join(
            f"  {json.dumps(cell)}: {json.dumps(values)}" for cell, values in rows.items()
        ) + "\n }"
        for name, rows in cells.items()
    ]
    print("{\n " + ",\n ".join(lines) + "\n}")
