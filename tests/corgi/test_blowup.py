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
"""

from __future__ import annotations

import time
from collections import Counter

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


def test_cross_product_needle_costs_corgi_nothing():
    """N items against an empty probe slot: Rete eagerly builds the
    quadratic item-pair memory; corgi stays unlinked and derives zero
    combinations."""
    n = 24
    source = """
    (p needle
      (stage ^step cross)
      (item ^id <x>)
      (item ^id { <y> > <x> })
      (probe ^a <x> ^b <y>)
      -->
      (halt))
    """
    compiled = parse_program(source)
    seq = SequentialMatcher(ReteNetwork.compile(compiled))
    corgi = CorgiMatcher(ReteNetwork.compile(compiled))
    wm = WorkingMemory()
    changes = [WMEChange(1, wm.add("stage", {"step": "cross"}))]
    changes += [WMEChange(1, wm.add("item", {"id": i})) for i in range(n)]
    assert seq.process_changes(changes) == []
    assert corgi.process_changes(changes) == []
    assert seq.stats.tokens_emitted >= n * (n - 1) // 2
    assert corgi.stats.tokens_emitted == 0
    assert corgi.counters["lazy_skips"] >= n
    assert not corgi.linked("needle")


def test_blocked_chain_completes_within_wall_clock_bound():
    """200 same-value WMEs per level of a 3-deep chain behind a
    constant blocker: eager evaluation would touch ~8e6 combinations;
    corgi's depth-0 gate makes the whole load linear.  The bound is
    deliberately generous — it exists to catch a regression to eager
    or super-linear behavior, not to benchmark."""
    n = 200
    source = "(p chain (c0 ^a 1) (c1 ^a 1) (c2 ^a 1) - (blocker) --> (halt))"
    corgi = CorgiMatcher(ReteNetwork.compile(parse_program(source)))
    wm = WorkingMemory()
    changes = [WMEChange(1, wm.add("blocker", {}))]
    for i in range(n):
        for level in range(3):
            changes.append(WMEChange(1, wm.add(f"c{level}", {"a": 1})))
    start = time.perf_counter()
    deltas = corgi.process_changes(changes)
    elapsed = time.perf_counter() - start
    assert deltas == []
    assert corgi.stats.tokens_emitted == 0
    # the first two adds are lazy-skipped before the rule links; every
    # later add is gate-pruned at depth 0.
    assert corgi.counters["gate_prunes"] >= 3 * n - 2
    assert elapsed < 5.0, f"blocked chain took {elapsed:.2f}s"
