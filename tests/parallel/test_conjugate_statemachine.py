"""Hypothesis tests for conjugate-pair handling (extra-deletes lists).

Two layers:

* a state machine driving arbitrary insert/remove traffic against a
  counting model of §3.2's extra-deletes rule — an insert first
  annihilates a parked delete of its twin, a remove that misses parks
  itself;
* an order-independence property: any interleaving of a fixed multiset
  of conjugate pairs (every ``+`` eventually meets its ``-``) drains to
  the same end state — empty memory, empty extra-deletes lists, and an
  annihilation count equal to the number of out-of-order pairs.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.ops5.wme import WME
from repro.parallel.conjugate import ConjugateMemory
from repro.rete.token import Token
from tests.rete.memdriver import NodeMemory

NODES = (1, 2)
SIDES = ("L", "R")
KEYS = ((), ("k",))
TAGS = tuple(range(1, 5))


def tok(tag: int) -> Token:
    return Token.single(WME.make("c", {}, tag))


class ConjugateMachine(RuleBasedStateMachine):
    """Model: per (node, side, key, tag), counts of stored and parked."""

    def __init__(self):
        super().__init__()
        self.memory = NodeMemory(ConjugateMemory(n_lines=8))
        self.stored = Counter()
        self.parked = Counter()
        self.annihilations = 0

    @rule(
        node=st.sampled_from(NODES),
        side=st.sampled_from(SIDES),
        key=st.sampled_from(KEYS),
        tag=st.sampled_from(TAGS),
    )
    def insert(self, node, side, key, tag):
        slot = (node, side, key, (tag,))
        live = self.memory.insert(node, side, key, tok(tag))
        if self.parked[slot] > 0:
            assert live is False, "insert must annihilate a parked delete"
            self.parked[slot] -= 1
            self.annihilations += 1
        else:
            assert live is True
            self.stored[slot] += 1

    @rule(
        node=st.sampled_from(NODES),
        side=st.sampled_from(SIDES),
        key=st.sampled_from(KEYS),
        tag=st.sampled_from(TAGS),
    )
    def remove(self, node, side, key, tag):
        slot = (node, side, key, (tag,))
        found, _examined = self.memory.remove(node, side, key, (tag,))
        if self.stored[slot] > 0:
            assert found is not None, "remove must find a stored twin"
            self.stored[slot] -= 1
        else:
            assert found is None, "remove without a twin must park"
            self.parked[slot] += 1

    @invariant()
    def pending_matches_model(self):
        assert self.memory.pending_deletes == sum(self.parked.values())

    @invariant()
    def stored_matches_model(self):
        per_side = Counter()
        for (node, side, _key, _tag), n in self.stored.items():
            per_side[(node, side)] += n
        for node in NODES:
            for side in SIDES:
                assert self.memory.side_size(node, side) == per_side[(node, side)]

    @invariant()
    def annihilations_counted(self):
        assert self.memory.annihilations == self.annihilations


TestConjugateMachine = ConjugateMachine.TestCase
TestConjugateMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


@settings(max_examples=80, deadline=None)
@given(
    tags=st.lists(st.sampled_from(TAGS), min_size=1, max_size=6),
    order=st.randoms(use_true_random=False),
)
def test_conjugate_pairs_drain_in_any_order(tags, order):
    """Park/annihilate is order-independent: shuffle each tag's +/-
    pair arbitrarily and the memory always drains to empty."""
    ops = []
    for i, tag in enumerate(tags):
        # Distinct timetags so equal tags still form distinct pairs.
        ops.append(("+", 10 * tag + i))
        ops.append(("-", 10 * tag + i))
    order.shuffle(ops)

    memory = NodeMemory(ConjugateMemory(n_lines=4))
    out_of_order = 0
    live = set()
    for sign, tag in ops:
        if sign == "+":
            memory.insert(1, "L", (), tok(tag))
        else:
            if tag not in live:
                out_of_order += 1
            memory.remove(1, "L", (), (tag,))
        if sign == "+":
            live.add(tag)

    assert memory.pending_deletes == 0
    assert memory.side_size(1, "L") == 0
    assert memory.total_tokens() == 0
    assert memory.annihilations == out_of_order
