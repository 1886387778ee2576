"""Shared alpha memories and once-per-network plans: what is shared
between readers and between matchers, and what must not be.
"""

from __future__ import annotations

import pytest

from repro.corgi.diffcheck import check_invariants
from repro.corgi.engine import CorgiMatcher
from repro.corgi.plan import compile_plans, memory_layout
from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.network import ReteNetwork

#: Three rules reading ``item``: two on the key ``(id)``, one key-less
#: (its ``item`` CE binds, it does not join), one of them negated.
SOURCE = """
(p pick  (want ^id <x>) (item ^id <x> ^size big) --> (halt))
(p spare (item ^id <x> ^size big) (want ^id <x>) --> (halt))
(p lone  (want ^id <x>) - (item ^id <x> ^size big) --> (halt))
"""


def fill(matcher, wm=None):
    wm = wm or WorkingMemory()
    wmes = [wm.add("want", {"id": 1}), wm.add("item", {"id": 1, "size": "big"}),
            wm.add("item", {"id": 2, "size": "big"})]
    matcher.process_changes([WMEChange(1, w) for w in wmes])
    return wm, wmes


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
def test_one_memory_per_terminal_and_key_attributes(mode):
    network = ReteNetwork.compile(parse_program(SOURCE), mode=mode)
    layout = memory_layout(network)
    shape = sorted(
        (len(m.readers), m.key_attrs) for m in layout
    )
    # want/() x2 readers (pick, lone), want/(id) x1 (spare),
    # item/(id) x2 (pick + lone's negated CE), item/() x1 (spare):
    # grouped by attribute names, so the interpreted evaluator's
    # one-closure-per-node key functions share too.
    assert shape == [(1, ()), (1, ("id",)), (2, ()), (2, ("id",))]
    plans = compile_plans(network)
    for mem in layout:
        assert all(plans[s.rule].slots[s.index] is s for s in mem.readers)
        assert all(layout[s.mem] is mem for s in mem.readers)
    matcher = CorgiMatcher(network)
    fill(matcher)
    # ... while sizes and the space figure keep their per-rule meaning.
    assert matcher.slot_sizes("pick") == [1, 2]
    assert matcher.slot_sizes("spare") == [2, 1]
    assert matcher.resident_tokens() == 3 + 3 + 3 + 2  # pick, spare: 1 each


def test_plans_are_compiled_once_per_network_and_state_is_per_matcher():
    network = ReteNetwork.compile(parse_program(SOURCE))
    one, two = CorgiMatcher(network), CorgiMatcher(network)
    assert one.plans is two.plans is compile_plans(network)
    fill(one)
    assert one.resident_tokens() > 0 and two.resident_tokens() == 0
    assert not any(two.linked(p.name) for p in two.plans)
    for a, b in zip(one._mems, two._mems):
        assert a.plan is b.plan
        assert a is not b and a.buckets is not b.buckets and a.linked is not b.linked
    for p in one.plans:
        assert one._rules[p.name].cs is not two._rules[p.name].cs
        assert not two._rules[p.name].cs
    # another network over the same program compiles its own plans, and
    # a network that grew a production since is compiled again
    other = ReteNetwork.compile(parse_program(SOURCE))
    assert compile_plans(other) is not one.plans
    (extra,) = parse_program("(p extra (want ^id 9) --> (halt))").productions
    other.add_production(extra)
    assert [p.name for p in compile_plans(other)][-1] == "extra"


def test_unknown_delete_raises_before_any_memory_is_touched():
    source = "(p r (a ^k <x> ^tag on) (a ^k <x>) --> (halt))"
    matcher = CorgiMatcher(ReteNetwork.compile(parse_program(source)))
    wm = WorkingMemory()
    wme = wm.add("a", {"k": 1, "tag": "on"})
    matcher.process_changes([WMEChange(1, wme)])
    first, last = matcher._mems
    assert first.size == last.size == 1
    # the WME is unknown to the memory the delete reaches *second*
    last.buckets.clear()
    with pytest.raises(RuntimeError, match="unknown wme 1 at corgi memory 1"):
        matcher.process_changes([WMEChange(-1, wme)])
    assert first.size == 1 and first.buckets == {None: {1: wme}}
    assert matcher._rules["r"].cs and matcher.linked("r")


class TestInvariantsSeeCorruption:
    """Each new corgick invariant fails on the state it guards."""

    def setup_method(self):
        self.matcher = CorgiMatcher(ReteNetwork.compile(parse_program(SOURCE)))
        self.wm, self.wmes = fill(self.matcher)
        assert not check_invariants(self.matcher, 0, self.wmes)

    def kinds(self):
        return {f.kind for f in check_invariants(self.matcher, 0, self.wmes)}

    def test_empty_count(self):
        self.matcher._rules["pick"].n_empty = 1
        assert "empty_count" in self.kinds()

    def test_linked_registry(self):
        mem = self.matcher._mems[self.matcher.plans[0].slots[0].mem]
        mem.linked.pop(next(iter(mem.linked)))
        assert "linked_registry" in self.kinds()

    def test_memory_contents(self):
        mem = next(m for m in self.matcher._mems if m.plan.key_attrs == ("id",)
                   and len(m.readers) == 2)
        del mem.buckets[(2,)]
        mem.size -= 1
        assert self.kinds() == {"memory_size"}

    def test_timetag_index(self):
        rs = self.matcher._rules["pick"]
        assert rs.cs
        rs.by_tt.clear()
        assert self.kinds() == {"timetag_index"}
