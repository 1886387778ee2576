"""What a WM change costs under corgi does not grow with the rules that
cannot match — guarded.

The paper's §4.2 remedy is "stop doing work that cannot produce a
match"; CORGI's unlinking (PAPERS.md) takes an unlinked rule *off* the
alpha memory's successor list rather than visiting and skipping it.
Here the unit is the Python frame under ``repro/corgi/`` (the
``sys.setprofile`` style of ``tests/rete/test_frame_budget.py``): a
change stored in a shared alpha memory costs the same frames whether 5
or 200 unlinked rules read that memory, one linked reader among 200
unlinked ones costs the frames of the one, and a delete examines only
the instantiations the WME sits in.  A per-change loop over a memory's
unlinked readers that calls anything, or a scan of a rule's whole
instantiation set on delete, fails here instead of in a benchmark.
"""

import sys
from collections import Counter
from pathlib import Path

import repro
from repro.corgi.engine import CorgiMatcher
from repro.obs import events as obs_events
from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.network import ReteNetwork

CORGI = str(Path(repro.__file__).parent / "corgi")

#: One linked reader of the shared ``(a ...)`` memory.
HOT = "(p hot (a ^k <x>) --> (halt))\n"


def unlinked_readers(n: int) -> str:
    """``n`` rules whose first CE shares one alpha terminal (and one
    key-less memory), each stuck behind its own, never-filled class."""
    return "\n".join(
        f"(p cold{i} (a ^k <x>) (b{i} ^k <x>) --> (halt))" for i in range(n)
    )


def frames_per_change(source: str):
    """Frames under ``repro/corgi/`` of one add and of one delete (each
    into a memory that is and stays non-empty), the ``lazy_skips`` the
    add counted, and the matcher."""
    matcher = CorgiMatcher(ReteNetwork.compile(parse_program(source)))
    wm = WorkingMemory()
    first = wm.add("a", {"k": 0})
    matcher.process_changes([WMEChange(1, first), WMEChange(1, wm.add("a", {"k": 1}))])
    frames = Counter()

    def on_event(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(CORGI):
            frames[frame.f_code.co_qualname] += 1

    def profiled(change) -> int:
        frames.clear()
        sys.setprofile(on_event)
        try:
            matcher.process_changes([change])
        finally:
            sys.setprofile(None)
        return sum(frames.values())

    skips = matcher.counters["lazy_skips"]
    add = profiled(WMEChange(1, wm.add("a", {"k": 2})))
    skips = matcher.counters["lazy_skips"] - skips
    wm.remove(first)
    delete = profiled(WMEChange(-1, first))
    return add, delete, skips, matcher


def test_unlinked_readers_cost_a_change_nothing():
    few = frames_per_change(unlinked_readers(5))
    many = frames_per_change(unlinked_readers(200))
    assert few[:2] == many[:2]
    # process_changes, process_change, its list of touched memories and
    # the add / delete body: no frame per reader.
    assert few[0] <= 4 and few[1] <= 4
    # ... and the readers not visited are still counted, by arithmetic.
    assert (few[2], many[2]) == (5, 200)
    for n, (_add, _delete, _skips, matcher) in ((5, few), (200, many)):
        assert not any(matcher.linked(f"cold{i}") for i in range(n))
        assert matcher.stats.node_activations == 0
        assert matcher.stats.tokens_emitted == 0


def test_one_linked_reader_among_unlinked_costs_the_one():
    alone = frames_per_change(HOT)
    crowded = frames_per_change(HOT + unlinked_readers(200))
    assert alone[:2] == crowded[:2]
    assert alone[0] > 4  # not vacuous: the linked reader enumerates
    assert (alone[2], crowded[2]) == (0, 200)
    # one visit + one conflict-set delta per change, the same activations
    assert alone[3].stats.node_activations == crowded[3].stats.node_activations == 8
    assert alone[3].linked("hot") and crowded[3].linked("hot")


def delete_one_of(n: int):
    """``(examined, emitted)`` of deleting a WME that sits in one of a
    rule's ``n`` instantiations, read off the bus's ``node_hit``."""
    matcher = CorgiMatcher(ReteNetwork.compile(parse_program(
        "(p pair (g ^on yes) (a ^k <x>) --> (halt))"
    )))
    wm = WorkingMemory()
    items = [wm.add("a", {"k": i}) for i in range(n)]
    matcher.process_changes(
        [WMEChange(1, wm.add("g", {"on": "yes"}))] + [WMEChange(1, w) for w in items]
    )
    assert len(matcher._rules["pair"].cs) == n
    victim = items[n // 2]
    wm.remove(victim)
    obs_events.reset()
    obs_events.enable()
    try:
        deltas = matcher.process_changes([WMEChange(-1, victim)])
    finally:
        snap = obs_events.snapshot()
        obs_events.disable()
        obs_events.reset()
    assert [d.sign for d in deltas] == [-1]
    assert len(matcher._rules["pair"].cs) == n - 1
    (_kind, hits, _dur, examined, emitted), = (
        agg for agg in snap.nodes.values() if agg[0] == "join"
    )
    assert hits == 1 and matcher._examined == examined
    return examined, emitted


def test_delete_examines_only_the_instantiations_the_wme_sits_in():
    assert delete_one_of(5) == delete_one_of(500) == (1, 1)
