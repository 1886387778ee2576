"""The ordered agenda against the definition it replaced, and a work bound.

Until PR 17 conflict resolution was ``max(cs.eligible(), key=sort_key)``
over a dict of signed counts, rebuilt every cycle.  ``Reference`` below
*is* that definition, kept here so the agenda ``ConflictSet`` maintains
incrementally can be checked against it after every step of a random
``apply`` / ``mark_fired`` / ``select`` sequence — strict and non-strict
(counts dipping to -1 and climbing to 2), LEX, MEA and the two
alternating on one set.

The second half bounds the work, in the style of
``tests/rete/test_frame_budget.py``: a sort key is built at most once
per admission (not once per cycle per entry), ``select`` does the same
number of calls on a 1 000-entry set as on a 10-entry one, and executing
an RHS never walks the production's AST.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro
from repro.ops5 import astnodes
from repro.ops5.conflict import ConflictSet, Instantiation, LexStrategy, MeaStrategy
from repro.ops5.errors import RuntimeOps5Error
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_production
from repro.ops5.rhs import CompiledRHS
from repro.ops5.wme import WorkingMemory
from repro.programs import weaver
from repro.rete.token import of
from tests.ops5.test_conflict import token

#: Specificities 1, 4, 2, 2, 3: ties on recency fall through to
#: specificity, then to the name.
PRODUCTIONS = {
    p.name: p
    for p in map(parse_production, (
        "(p plain (c) --> (halt))",
        "(p picky (c ^a 1 ^b 2 ^c 3) --> (halt))",
        "(p pair (c) (d) --> (halt))",
        "(p twin (c) (d) --> (halt))",
        "(p triple (c) (d) (e) --> (halt))",
    ))
}
STRATEGIES = {"lex": LexStrategy(), "mea": MeaStrategy()}
#: Where a profiled frame must live to be counted.
OURS = (str(Path(repro.__file__).parent), __file__, "<string>")


def old_lex(key):
    name, tags = key
    desc = tuple(sorted(tags, reverse=True))
    return (desc, len(desc), PRODUCTIONS[name].specificity(), name, tags)


def old_mea(key):
    return (key[1][0] if key[1] else 0,) + old_lex(key)


OLD_ORDER = {"lex": old_lex, "mea": old_mea}


class Reference:
    """The conflict set as the parent of PR 17 defined it: scanned."""

    def __init__(self, strict):
        self.strict, self.counts, self.fired = strict, {}, set()

    def apply(self, key, sign):
        count = self.counts.get(key, 0) + sign
        if self.strict and not 0 <= count <= 1:
            raise RuntimeOps5Error(key)
        if count == 0:
            self.counts.pop(key, None)
            self.fired.discard(key)
        else:
            self.counts[key] = count

    def present(self):
        return [k for k, c in self.counts.items() if c > 0]

    def select(self, order):
        eligible = [k for k in self.present() if k not in self.fired]
        return max(eligible, key=OLD_ORDER[order]) if eligible else None

    def valid(self):
        return all(c == 1 for c in self.counts.values())


KEYS = st.tuples(
    st.sampled_from(sorted(PRODUCTIONS)),
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
)


class AgendaMachine(RuleBasedStateMachine):
    strict = False

    def __init__(self):
        super().__init__()
        self.cs = ConflictSet(strict=self.strict)
        self.ref = Reference(self.strict)
        self.order = "lex"
        self.seen = set()

    def selected(self, order):
        inst = STRATEGIES[order].select(self.cs)
        return None if inst is None else inst.key

    @rule(key=KEYS, sign=st.sampled_from((1, 1, -1)))
    def apply(self, key, sign):
        self.seen.add(key)
        try:
            self.ref.apply(key, sign)
        except RuntimeOps5Error:
            with pytest.raises(RuntimeOps5Error, match="conflict set corrupt"):
                self.cs.apply(PRODUCTIONS[key[0]], token(*key[1]), sign)
        else:
            self.cs.apply(PRODUCTIONS[key[0]], token(*key[1]), sign)

    @rule(key=KEYS)
    def mark_fired(self, key):
        # Any key, present or not: the parent's mark outlives absence
        # until a count next returns to 0.
        self.ref.fired.add(key)
        self.cs.mark_fired(Instantiation(PRODUCTIONS[key[0]], token(*key[1])))

    @rule()
    def fire(self):
        """What the interpreter does: select, then refract the winner."""
        inst = STRATEGIES[self.order].select(self.cs)
        assert (inst and inst.key) == self.ref.select(self.order)
        if inst is not None:
            self.ref.fired.add(inst.key)
            self.cs.mark_fired(inst)

    @rule(order=st.sampled_from(sorted(STRATEGIES)))
    def switch_strategy(self, order):
        self.order = order

    @invariant()
    def agrees_with_the_scan(self):
        assert self.selected(self.order) == self.ref.select(self.order)
        assert len(self.cs) == len(self.ref.present())
        assert [i.key for i in self.cs.instantiations()] == self.ref.present()
        assert all((k in self.cs) == (k in self.ref.present()) for k in self.seen)
        if self.ref.valid():
            self.cs.validate()
        else:
            with pytest.raises(RuntimeOps5Error, match="counts out of range"):
                self.cs.validate()


class StrictAgendaMachine(AgendaMachine):
    strict = True


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestAgendaNonStrict = AgendaMachine.TestCase
TestAgendaNonStrict.settings = _SETTINGS
TestAgendaStrict = StrictAgendaMachine.TestCase
TestAgendaStrict.settings = _SETTINGS


@pytest.mark.parametrize("order", sorted(STRATEGIES))
def test_a_large_first_load_and_a_change_of_order_sort_the_same(order):
    """Batches larger than the agenda take the one-timsort path."""
    cs, ref = ConflictSet(), Reference(strict=True)
    for i, name in enumerate(sorted(PRODUCTIONS) * 40):
        key = (name, (i % 7 + 1, i + 1))
        ref.apply(key, 1)
        cs.apply(PRODUCTIONS[name], token(*key[1]), 1)
    other = "mea" if order == "lex" else "lex"
    for strategy in (order, other, order):
        for _ in range(5):
            inst = STRATEGIES[strategy].select(cs)
            assert inst.key == ref.select(strategy)
            ref.fired.add(inst.key)
            cs.mark_fired(inst)


# ---------------------------------------------------------------------------
# The work bound


def calls_during(fn):
    """Python and C call events while ``fn()`` runs: callee name ->
    count, and the source files of the Python callees.  Only what the
    package (or this file) calls — not a plugin's gc callback."""
    calls, files = Counter(), set()

    def on_event(frame, event, arg):
        if not frame.f_code.co_filename.startswith(OURS):
            return
        if event == "call":
            calls[frame.f_code.co_qualname] += 1
            files.add(frame.f_code.co_filename)
        elif event == "c_call":
            calls[arg.__name__] += 1

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, files


def test_a_sort_key_is_built_at_most_once_per_admission():
    interp = Interpreter(weaver.source(grid=4, n_nets=1))
    admissions, sizes = [], []
    real_apply = interp.conflict_set.apply

    def counting_apply(production, tok, sign):
        real_apply(production, tok, sign)
        admissions.append(sign > 0)
        sizes.append(len(interp.conflict_set))

    interp.conflict_set.apply = counting_apply
    calls, _files = calls_during(lambda: interp.run(max_cycles=5000))
    cycles = interp.cycle
    assert cycles > 100 and max(sizes) > 20  # not vacuous
    # Every firing was keyed once and nothing was keyed twice; the scan
    # this replaced built one key per eligible entry per cycle.
    assert cycles <= calls["_lex_sort_key"] <= sum(admissions) < 2 * cycles
    assert calls["ConflictSet.best"] == cycles  # the last firing halts


def loaded(n):
    cs = ConflictSet()
    production = PRODUCTIONS["pair"]
    for i in range(n):
        cs.apply(production, token(i + 1, 1), 1)
    assert LexStrategy().select(cs).token[1] == (n, 1)
    return cs


def one_cycle(cs):
    """A retraction, an admission that wins, selection, refraction."""
    production, strategy = PRODUCTIONS["pair"], LexStrategy()
    cs.apply(production, token(3, 1), -1)
    cs.apply(production, token(5000, 1), 1)
    inst = strategy.select(cs)
    assert inst.token[1] == (5000, 1)
    cs.mark_fired(inst)
    assert strategy.select(cs) is not None


def test_a_cycle_costs_the_same_calls_whatever_the_size_of_the_set():
    small, large = loaded(10), loaded(1000)
    cost_small, _files = calls_during(lambda: one_cycle(small))
    cost_large, _files = calls_during(lambda: one_cycle(large))
    assert cost_small == cost_large
    assert cost_small["_lex_sort_key"] == 1
    # ``len`` and ``validate`` are answered from counters, not a scan.
    assert len(small) == 10 and len(large) == 1000
    assert calls_during(lambda: len(large)) == calls_during(lambda: len(small))
    assert calls_during(large.validate) == calls_during(small.validate)


def test_executing_an_rhs_never_enters_the_ast_module():
    production = parse_production(
        "(p r (a ^x <v> ^y { <w> > 2 }) - (n ^z <v>) (b ^x <v> ^k <k>)"
        " --> (make c ^v <v> ^w <w> ^k <k>) (modify 3 ^k (compute <k> + 1)))"
    )
    rhs = CompiledRHS(production)
    wm = WorkingMemory()
    tok = of((wm.add("a", {"x": 1, "y": 3}), wm.add("b", {"x": 1, "k": 7})))
    envs = []
    calls, files = calls_during(lambda: envs.append(rhs.execute(wm, tok)))
    assert envs[0].bindings == {"v": 1, "w": 3, "k": 7}
    assert [c.wme.klass for c in envs[0].changes] == ["c", "b", "b"]
    assert "CompiledRHS.execute" in calls and astnodes.__file__ not in files
    assert not set(calls) & {
        "extract_bindings", "binding_plan", "_first_binding_attr",
        "ConditionElement.variables",
    }
