"""Corgi on the blow-up shapes: lazy join evaluation never
materializes the intermediate partial-token chains that eager joins
multiply (the deep-chain case is the one the threaded engine is held to
in tests/schedck/test_deep_chain.py).

Three guards, in increasing ambition:

* the pinned deep-chain case does no more derivation work under corgi
  than sequential Rete does (within the bookkeeping factor: corgi
  counts every derived prefix, Rete only tokens past the first join);
* a cross-product needle — N items joined pairwise against an empty
  probe slot — costs Rete a quadratic token population while corgi,
  unlinked, derives nothing at all;
* a wall-clock bound: a blocked same-value chain at a size where eager
  joins would materialize ~N^3 partial tokens completes under corgi
  inside a generous fixed budget, because the depth-0 negation gate
  prunes every derivation before it starts.

The last two also run a churned sizing (items or c0s deleted and
re-added round by round) at which eager Rete's derived-token count is
pinned exactly beside corgi's zero.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.check import check_conflict_set, fold_cs
from repro.corgi.engine import CorgiMatcher
from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.schedck.workloads import deep_chain_case


def test_deep_chain_no_blowup_under_corgi():
    """Under corgi the deep-chain case stays within a constant factor
    of sequential Rete's match work, and the conflict set agrees batch
    for batch."""
    program, batches = deep_chain_case()
    compiled = parse_program(program)
    seq = SequentialMatcher(ReteNetwork.compile(compiled))
    corgi = CorgiMatcher(ReteNetwork.compile(compiled))
    seq_cs: Counter = Counter()
    corgi_cs: Counter = Counter()
    for bi, batch in enumerate(batches):
        fold_cs(seq_cs, seq.process_changes(batch))
        fold_cs(corgi_cs, corgi.process_changes(batch))
        assert not check_conflict_set(bi, corgi_cs, seq_cs)
    # corgi counts every derived prefix where Rete counts only tokens
    # past the first join, so allow that bookkeeping factor.
    assert corgi.stats.tokens_emitted <= 2 * seq.stats.tokens_emitted


CROSS_SOURCE = """
(p needle
  (stage ^step cross)
  (item ^id <x>)
  (item ^id { <y> > <x> })
  (probe ^a <x> ^b <y>)
  -->
  (halt))
"""

CHAIN_SOURCE = "(p chain (c0 ^a 1) (c1 ^a 1) (c2 ^a 1) - (blocker) --> (halt))"


def cross_batches(n_items: int, n_churn: int):
    """Stage + N items against a forever-empty probe slot, then churn:
    delete/re-add one item per round.  Eager Rete rebuilds ~N pair
    tokens per round; an unlinked lazy engine does O(1)."""
    wm = WorkingMemory()
    batches = [[WMEChange(1, wm.add("stage", {"step": "cross"}))]
               + [WMEChange(1, wm.add("item", {"id": i}))
                  for i in range(n_items)]]
    victim = None
    for round_no in range(n_churn):
        if victim is not None:
            wm.remove(victim)
        old = victim
        victim = wm.add("item", {"id": round_no % n_items})
        batch = [WMEChange(1, victim)]
        if old is not None:
            batch.insert(0, WMEChange(-1, old))
        batches.append(batch)
    return batches


def chain_batches(n_per_level: int, n_churn: int):
    """A same-value 3-chain behind a constant blocker: Rete derives
    ~N^3 prefixes that the not-node then discards; a gate-hoisting
    engine prunes at depth 0.  Churn re-adds a c0 each round."""
    wm = WorkingMemory()
    first = [WMEChange(1, wm.add("blocker", {}))]
    for _ in range(n_per_level):
        for level in range(3):
            first.append(WMEChange(1, wm.add(f"c{level}", {"a": 1})))
    batches = [first]
    victim = None
    for _ in range(n_churn):
        batch = []
        if victim is not None:
            wm.remove(victim)
            batch.append(WMEChange(-1, victim))
        victim = wm.add("c0", {"a": 1})
        batch.append(WMEChange(1, victim))
        batches.append(batch)
    return batches


def rete_tokens(source: str, batches) -> int:
    """Tokens eager sequential Rete derives over ``batches`` (which never
    complete a match)."""
    seq = SequentialMatcher(ReteNetwork.compile(parse_program(source)))
    for batch in batches:
        assert seq.process_changes(batch) == []
    return seq.stats.tokens_emitted


@pytest.mark.parametrize("n, n_churn, rete", [
    pytest.param(24, 0, 300, id="n24"),
    pytest.param(110, 40, 14795, id="churned"),
])
def test_cross_product_needle_costs_corgi_nothing(n, n_churn, rete):
    """N items against an empty probe slot: Rete eagerly builds the
    quadratic item-pair memory (and rebuilds a row per churn round);
    corgi stays unlinked and derives zero combinations."""
    batches = cross_batches(n, n_churn)
    corgi = CorgiMatcher(ReteNetwork.compile(parse_program(CROSS_SOURCE)))
    for batch in batches:
        assert corgi.process_changes(batch) == []
    assert rete_tokens(CROSS_SOURCE, batches) == rete >= n * (n - 1) // 2
    assert corgi.stats.tokens_emitted == 0
    assert corgi.counters["lazy_skips"] >= n
    assert not corgi.linked("needle")


@pytest.mark.parametrize("n, n_churn, rete", [
    pytest.param(200, 0, None, id="n200"),
    pytest.param(13, 6, 4368, id="churned"),
])
def test_blocked_chain_completes_within_wall_clock_bound(n, n_churn, rete):
    """N same-value WMEs per level of a 3-deep chain behind a constant
    blocker: eager evaluation would touch ~N^3 combinations (~8e6 at
    200, where only corgi runs; exactly ``rete`` derived tokens at 13);
    corgi's depth-0 gate makes the whole load linear.  The bound is
    deliberately generous — it exists to catch a regression to eager
    or super-linear behavior, not to benchmark."""
    batches = chain_batches(n, n_churn)
    corgi = CorgiMatcher(ReteNetwork.compile(parse_program(CHAIN_SOURCE)))
    start = time.perf_counter()
    for batch in batches:
        assert corgi.process_changes(batch) == []
    elapsed = time.perf_counter() - start
    assert corgi.stats.tokens_emitted == 0
    # the first two adds are lazy-skipped before the rule links; every
    # later add is gate-pruned at depth 0.
    assert corgi.counters["gate_prunes"] >= 3 * n - 2
    assert elapsed < 5.0, f"blocked chain took {elapsed:.2f}s"
    if rete is not None:
        assert rete_tokens(CHAIN_SOURCE, batches) == rete
