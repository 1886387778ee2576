"""Every ``MatchStats`` counter and the recorded task list, pinned.

Tables 4-2/4-3 read the examined counters, Table 4-1 the activation
totals, and the simulator's cost model every field of every
:class:`~repro.rete.trace.TaskRecord`.  ``pinned_match.json`` holds
what the sequential matcher produced for four programs on both memory
designs *before* the activation path was flattened (PR 14); a change to
the match inner loop that moves any of them fails here, not in a
benchmark golden.  The weaver entry also pins every beta node's
activations, tokens examined and tokens emitted under its production's
name, so a moved count fails naming the production and node that moved.

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
#: Entries that also pin per-node counts.
NODE_COUNTS = ("weaver-hash",)

COUNTERS = (
    "wme_changes", "node_activations", "activations_by_kind",
    "constant_tests", "alpha_passes",
    "opp_examined_left", "opp_count_left",
    "opp_examined_right", "opp_count_right",
    "same_del_examined_left", "same_del_count_left",
    "same_del_examined_right", "same_del_count_right",
    "tokens_emitted", "cs_changes",
)


def node_counts(network, trace) -> dict:
    """``"<node_id> <kind> <production>"`` -> ``[activations, examined,
    emitted]``, summed over the recorded tasks, in node-id order."""
    counts = {}
    for t in trace.tasks:
        key = (t.node_id, t.kind, network.node_owner[t.node_id])
        acts, examined, emitted = counts.get(key, (0, 0, 0))
        counts[key] = [acts + 1, examined + t.opp_examined + t.same_examined,
                       emitted + t.n_children]
    return {" ".join(map(str, key)): counts[key] for key in sorted(counts)}


def movers(pinned: dict, observed: dict) -> list:
    """``(node key, pinned counts, observed counts)`` for every node whose
    counts differ, the largest activation delta first (then examined,
    then emitted)."""
    zero = [0, 0, 0]
    moved = [
        (key, pinned.get(key, zero), observed.get(key, zero))
        for key in pinned.keys() | observed.keys()
        if pinned.get(key) != observed.get(key)
    ]
    moved.sort(key=lambda m: ([-abs(c - b) for b, c in zip(m[1], m[2])], m[0]))
    return moved


def observe(program: str, memory: str, source: str = None) -> dict:
    recorder = TraceRecorder()
    interp = Interpreter(source or PROGRAMS[program](), memory=memory,
                         recorder=recorder)
    interp.run(max_cycles=5000)
    stats = {name: getattr(interp.stats, name) for name in COUNTERS}
    stats["activations_by_kind"] = dict(sorted(stats["activations_by_kind"].items()))
    tasks = hashlib.sha256()
    for t in recorder.trace.tasks:
        tasks.update(
            f"{t.kind} {t.node_id} {t.side} {t.sign} {t.line} {t.opp_examined} "
            f"{t.same_examined} {t.n_children} {t.parent}\n".encode()
        )
    out = {
        "stats": stats,
        "n_tasks": recorder.trace.n_tasks,
        "tasks_sha256": tasks.hexdigest(),
    }
    if f"{program}-{memory}" in NODE_COUNTS:
        out["nodes"] = node_counts(interp.network, recorder.trace)
    return out


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_stats_and_task_list_are_the_pinned_ones(program, memory):
    pinned = json.loads(PINNED.read_text())[f"{program}-{memory}"]
    observed = observe(program, memory)
    moved = movers(pinned.pop("nodes", {}), observed.pop("nodes", {}))
    assert not moved
    assert observed == pinned


#: ``accept-c0-b5``'s three condition elements after ``cand``, as
#: weaver writes them and reversed: the candidate now joins the (always
#: matching) router and net before the cell that filters it.
VICTIM = "accept-c0-b5"
AS_WRITTEN = """\
  (cell ^x <x> ^y <y> ^blocked no)
  (net ^id <n> ^class c0 ^state routing)
  (router ^current <n> ^state expand)
"""
REORDERED = """\
  (router ^current <n> ^state expand)
  (net ^id <n> ^class c0 ^state routing)
  (cell ^x <x> ^y <y> ^blocked no)
"""


def test_planted_reorder_is_named_by_production_and_join_node():
    source = PROGRAMS["weaver"]()
    head, rule = source.split(f"(p {VICTIM}\n", 1)
    assert AS_WRITTEN in rule.split("-->", 1)[0]
    planted = head + f"(p {VICTIM}\n" + rule.replace(AS_WRITTEN, REORDERED, 1)

    pinned = json.loads(PINNED.read_text())["weaver-hash"]
    observed = observe("weaver", "hash", source=planted)
    # More match work for the same firings: the program's meaning is intact.
    assert observed["n_tasks"] > pinned["n_tasks"]
    for same in ("wme_changes", "cs_changes"):
        assert observed["stats"][same] == pinned["stats"][same]

    key, before, after = movers(pinned["nodes"], observed["nodes"])[0]
    _node_id, kind, production = key.split(" ")
    assert (production, kind) == (VICTIM, "join")
    assert after[0] > before[0]


if __name__ == "__main__":
    print(json.dumps(
        {f"{p}-{m}": observe(p, m) for p in sorted(PROGRAMS) for m in MEMORIES},
        indent=1,
    ))
