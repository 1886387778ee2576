"""Hypothesis property tests for the unlinking machinery.

Three claims, each over generated programs and WM histories:

* a production is linked iff every positive slot memory is non-empty,
  and an unlinked production holds no instantiations (the structural
  invariant lazy evaluation rests on);
* unlink/relink round-trips preserve match results: retracting every
  live WME (unlinking everything) and re-asserting equivalent WMEs
  leaves corgi in byte-agreement with a sequential Rete engine driven
  through the identical history;
* per-change derivation work stays inside the quadratic bound on the
  shallow corpus (rules of at most two positive CEs): corgi never
  derives more than O(live WMEs squared) combinations for one change,
  no matter the history — the CORGI cost guarantee in miniature.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.check import check_conflict_set, fold_cs
from repro.corgi.diffcheck import check_invariants
from repro.corgi.engine import CorgiMatcher
from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.schedck import progen

from tests.rete.test_properties import program_source, wm_history, _CLASSES

SHALLOW = progen.ProgenParams()  # max two positive CEs per rule


def history_changes(ops):
    """Materialize a :func:`wm_history` op list into WMEChange objects
    (shared WMEs, so several matchers can be driven in lockstep)."""
    wm = WorkingMemory()
    live = []
    changes = []
    for op, arg, attrs in ops:
        if op == "add":
            wme = wm.add(_CLASSES[arg], attrs)
            live.append(wme)
            changes.append(WMEChange(1, wme))
        elif live:
            wme = live.pop(arg % len(live))
            wm.remove(wme)
            changes.append(WMEChange(-1, wme))
    return wm, live, changes


@settings(max_examples=50, deadline=None)
@given(source=program_source(), ops=wm_history())
def test_linked_iff_positive_memories_nonempty(source, ops):
    corgi = CorgiMatcher(ReteNetwork.compile(parse_program(source)))
    _wm, _live, changes = history_changes(ops)
    live = 0
    for change in changes:
        live += change.sign
        corgi.process_changes([change])
        for plan in corgi.plans:
            sizes = corgi.slot_sizes(plan.name)
            expect = all(sizes[s.index] > 0 for s in plan.pos_slots)
            assert corgi.linked(plan.name) == expect, plan.name
            if not expect:
                assert not corgi._rules[plan.name].cs, plan.name
        assert not check_invariants(corgi, 0, live)


@settings(max_examples=50, deadline=None)
@given(source=program_source(), ops=wm_history())
def test_unlink_relink_roundtrip_preserves_match(source, ops):
    """history + retract-everything + re-assert: every production
    unlinks and relinks along the way, and the conflict set still
    agrees with sequential Rete after every change."""
    wm, live, changes = history_changes(ops)
    for wme in list(live):
        wm.remove(wme)
        changes.append(WMEChange(-1, wme))
    for wme in live:
        readded = wm.add(wme.klass, dict(wme.vals))
        changes.append(WMEChange(1, readded))

    program = parse_program(source)
    seq = SequentialMatcher(ReteNetwork.compile(program))
    corgi = CorgiMatcher(ReteNetwork.compile(program))
    seq_cs: Counter = Counter()
    corgi_cs: Counter = Counter()
    for i, change in enumerate(changes):
        fold_cs(seq_cs, seq.process_changes([change]))
        fold_cs(corgi_cs, corgi.process_changes([change]))
        assert not check_conflict_set(i, corgi_cs, seq_cs)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_tokens_within_quadratic_bound_on_shallow_corpus(seed):
    """On rules of at most two positive CEs, one WM change can derive
    at most O(live^2) combinations (seeded add: live per touched slot;
    negated delete: a full live x live re-derivation) — never the
    exponential intermediate sets Rete materializes on deep chains."""
    rng = random.Random(seed)
    source, batches = progen.generate(rng, SHALLOW)
    corgi = CorgiMatcher(ReteNetwork.compile(parse_program(source)))
    n_rules = len(corgi.plans)
    live = 0
    before = 0
    for batch in batches:
        for change in batch:
            live += change.sign
            corgi.process_changes([change])
            emitted = corgi.stats.tokens_emitted - before
            before = corgi.stats.tokens_emitted
            bound = 2 * n_rules * (live + 1) ** 2
            assert emitted <= bound, (emitted, bound, live)
