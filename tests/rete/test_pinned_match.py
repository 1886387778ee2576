"""Every ``MatchStats`` counter and the recorded task list, pinned.

Tables 4-2/4-3 read the examined counters, Table 4-1 the activation
totals, and the simulator's cost model every field of every
:class:`~repro.rete.trace.TaskRecord`.  ``pinned_match.json`` holds
what the sequential matcher produced for four programs on both memory
designs *before* the activation path was flattened (PR 14); a change to
the match inner loop that moves any of them fails here, not in a
benchmark golden.

Regenerate (only when a counter's meaning changes on purpose)::

    PYTHONPATH=src python tests/rete/test_pinned_match.py > tests/rete/pinned_match.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.ops5.interpreter import Interpreter
from repro.programs import blocks, rubik, tourney, weaver
from repro.rete.trace import TraceRecorder

PINNED = Path(__file__).with_name("pinned_match.json")

PROGRAMS = {
    "blocks": lambda: blocks.source(),
    "rubik": lambda: rubik.source(n_moves=4, seed=1988),
    "tourney": lambda: tourney.source(n_teams=6, n_rounds=7),
    "weaver": lambda: weaver.source(grid=5, n_nets=1),
}
MEMORIES = ("hash", "linear")

COUNTERS = (
    "wme_changes", "node_activations", "activations_by_kind",
    "constant_tests", "alpha_passes",
    "opp_examined_left", "opp_count_left",
    "opp_examined_right", "opp_count_right",
    "same_del_examined_left", "same_del_count_left",
    "same_del_examined_right", "same_del_count_right",
    "tokens_emitted", "cs_changes",
)


def observe(program: str, memory: str) -> dict:
    recorder = TraceRecorder()
    interp = Interpreter(PROGRAMS[program](), memory=memory, recorder=recorder)
    interp.run(max_cycles=5000)
    stats = {name: getattr(interp.stats, name) for name in COUNTERS}
    stats["activations_by_kind"] = dict(sorted(stats["activations_by_kind"].items()))
    tasks = hashlib.sha256()
    for t in recorder.trace.tasks:
        tasks.update(
            f"{t.kind} {t.node_id} {t.side} {t.sign} {t.line} {t.opp_examined} "
            f"{t.same_examined} {t.n_children} {t.parent}\n".encode()
        )
    return {
        "stats": stats,
        "n_tasks": recorder.trace.n_tasks,
        "tasks_sha256": tasks.hexdigest(),
    }


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_stats_and_task_list_are_the_pinned_ones(program, memory):
    pinned = json.loads(PINNED.read_text())[f"{program}-{memory}"]
    assert observe(program, memory) == pinned


if __name__ == "__main__":
    print(json.dumps(
        {f"{p}-{m}": observe(p, m) for p in sorted(PROGRAMS) for m in MEMORIES},
        indent=1,
    ))
