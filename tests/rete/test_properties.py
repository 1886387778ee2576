"""Property-based tests (hypothesis): the core correctness invariant of
the whole system is that every engine configuration computes the *same
match* — linear vs hash memories, interpreted vs compiled tests — on
arbitrary programs and working-memory histories.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork

# ---------------------------------------------------------------------------
# Random program / working-memory generation
# ---------------------------------------------------------------------------

_CLASSES = ("c0", "c1", "c2")
_ATTRS = ("a", "b")
_VALUES = (0, 1, 2)
_VARS = ("v0", "v1")
_PREDS = ("=", "<>", "<", ">=")

value_test = st.one_of(
    st.sampled_from(_VALUES).map(str),
    st.sampled_from(_VARS).map(lambda v: f"<{v}>"),
    st.tuples(st.sampled_from(_PREDS), st.sampled_from(_VALUES)).map(
        lambda t: f"{t[0]} {t[1]}"
    ),
)

condition_element = st.builds(
    lambda klass, tests: "(" + klass + "".join(
        f" ^{attr} {test}" for attr, test in tests
    ) + ")",
    st.sampled_from(_CLASSES),
    st.lists(st.tuples(st.sampled_from(_ATTRS), value_test), min_size=0, max_size=2),
)


@st.composite
def production(draw, index: int = 0) -> str:
    n_ces = draw(st.integers(1, 3))
    ces = [draw(condition_element) for _ in range(n_ces)]
    negate = draw(st.booleans()) and n_ces > 1
    if negate:
        pos = draw(st.integers(1, n_ces - 1))
        ces[pos] = "- " + ces[pos]
    name = f"r{index}-{draw(st.integers(0, 10 ** 6))}"
    return f"(p {name} {' '.join(ces)} --> (halt))"


@st.composite
def program_source(draw) -> str:
    n = draw(st.integers(1, 4))
    return "\n".join(draw(production(i)) for i in range(n))


@st.composite
def wm_history(draw) -> List[Tuple[str, int, dict]]:
    """A list of ('add'|'remove', index-into-added, attrs) operations."""
    ops: List[Tuple[str, int, dict]] = []
    n_live = 0
    for _ in range(draw(st.integers(1, 12))):
        if n_live and draw(st.booleans()) and draw(st.booleans()):
            ops.append(("remove", draw(st.integers(0, n_live - 1)), {}))
        else:
            attrs = {
                attr: draw(st.sampled_from(_VALUES))
                for attr in _ATTRS
                if draw(st.booleans())
            }
            klass = draw(st.sampled_from(_CLASSES))
            ops.append(("add", _CLASSES.index(klass), attrs))
            n_live += 1
    return ops


def run_history(source: str, ops, memory: str, mode: str):
    """Apply the WM history; return the final conflict-set key set."""
    network = ReteNetwork.compile(parse_program(source), mode=mode)
    matcher = SequentialMatcher(network, memory=memory)
    wm = WorkingMemory()
    live = []
    conflict = {}
    for op, arg, attrs in ops:
        if op == "add":
            wme = wm.add(_CLASSES[arg], attrs)
            live.append(wme)
            deltas = matcher.process_changes([WMEChange(1, wme)])
        else:
            if not live:
                continue
            wme = live.pop(arg % len(live))
            wm.remove(wme)
            deltas = matcher.process_changes([WMEChange(-1, wme)])
        for production, token, sign in deltas:
            key = (production.name, token[1])
            conflict[key] = conflict.get(key, 0) + sign
    assert all(v in (0, 1) for v in conflict.values()), conflict
    return {k for k, v in conflict.items() if v == 1}, matcher


@settings(max_examples=60, deadline=None)
@given(source=program_source(), ops=wm_history())
def test_all_engine_configurations_agree(source, ops):
    """linear/hash × interpreted/compiled produce identical matches."""
    reference, _ = run_history(source, ops, "hash", "compiled")
    for memory in ("linear", "hash"):
        for mode in ("interpreted", "compiled"):
            result, _ = run_history(source, ops, memory, mode)
            assert result == reference, (memory, mode)


@settings(max_examples=60, deadline=None)
@given(source=program_source(), ops=wm_history())
def test_memories_empty_after_full_retraction(source, ops):
    """Adding everything and then removing everything leaves every token
    memory empty (no leaks, no stragglers)."""
    # Build an add-everything-then-remove-everything history.
    adds = [(op, a, attrs) for op, a, attrs in ops if op == "add"]
    network = ReteNetwork.compile(parse_program(source))
    matcher = SequentialMatcher(network, memory="hash")
    wm = WorkingMemory()
    wmes = []
    for _op, arg, attrs in adds:
        wme = wm.add(_CLASSES[arg], attrs)
        wmes.append(wme)
        matcher.process_changes([WMEChange(1, wme)])
    for wme in wmes:
        wm.remove(wme)
        matcher.process_changes([WMEChange(-1, wme)])
    assert matcher.memory.total_tokens() == 0


@settings(max_examples=40, deadline=None)
@given(source=program_source(), ops=wm_history())
def test_insertion_order_independence(source, ops):
    """Shuffling independent adds does not change the final match."""
    adds = [(op, a, attrs) for op, a, attrs in ops if op == "add"]
    forward, _ = run_history(source, adds, "hash", "compiled")
    backward, _ = run_history(source, list(reversed(adds)), "hash", "compiled")

    def canonical(result):
        # Timetags depend on insertion order; compare by production
        # name and the multiset of instantiation counts.
        names = {}
        for name, _key in result:
            names[name] = names.get(name, 0) + 1
        return names

    assert canonical(forward) == canonical(backward)


@settings(max_examples=40, deadline=None)
@given(
    tags=st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True),
    key=st.tuples(st.sampled_from(_VALUES)),
)
def test_memory_insert_remove_roundtrip(tags, key):
    """Inserting tokens and removing them in any order empties both
    memory systems and never loses a token."""
    from repro.rete.memories import MemorySystem
    from repro.rete.token import of
    from repro.ops5.wme import WME
    from tests.rete.memdriver import NodeMemory

    for kind in ("linear", "hash"):
        mem = NodeMemory(MemorySystem(kind))
        tokens = [of((WME.make("c", {}, t),)) for t in tags]
        for t in tokens:
            mem.insert(1, "L", key, t)
        assert mem.side_size(1, "L") == len(tokens)
        for t in reversed(tokens):
            found, examined = mem.remove(1, "L", key, t[1])
            assert found is t
            assert examined >= 1
        assert mem.total_tokens() == 0
