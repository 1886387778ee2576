"""Property-based tests for the threaded engine: on arbitrary
*shallow* random programs (≤2 positive CEs — deep chains suffer the
transient-blow-up documented in EXPERIMENTS.md) the parallel matcher's
conflict set always equals the sequential matcher's."""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.parallel.engine import ParallelMatcher
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork

_CLASSES = ("c0", "c1")
_ATTRS = ("a", "b")
_VALUES = (0, 1)

value_test = st.one_of(
    st.sampled_from(_VALUES).map(str),
    st.sampled_from(("v0", "v1")).map(lambda v: f"<{v}>"),
)

condition_element = st.builds(
    lambda klass, tests: "(" + klass + "".join(
        f" ^{attr} {test}" for attr, test in tests
    ) + ")",
    st.sampled_from(_CLASSES),
    st.lists(st.tuples(st.sampled_from(_ATTRS), value_test), max_size=2),
)


@st.composite
def shallow_program(draw) -> str:
    rules = []
    for i in range(draw(st.integers(1, 3))):
        ces = [draw(condition_element)]
        if draw(st.booleans()):
            ce = draw(condition_element)
            if draw(st.booleans()):
                ce = "- " + ce
            ces.append(ce)
        rules.append(f"(p r{i} {' '.join(ces)} --> (halt))")
    return "\n".join(rules)


@st.composite
def wm_batches(draw) -> List[List[Tuple[str, dict]]]:
    """Batches of WME additions (each batch = one 'RHS output')."""
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            attrs = {
                a: draw(st.sampled_from(_VALUES))
                for a in _ATTRS
                if draw(st.booleans())
            }
            batch.append((draw(st.sampled_from(_CLASSES)), attrs))
        batches.append(batch)
    return batches


def apply_batches(matcher, batches):
    wm = WorkingMemory()
    counts = {}
    for batch in batches:
        changes = [WMEChange(1, wm.add(klass, attrs)) for klass, attrs in batch]
        for production, token, sign in matcher.process_changes(changes):
            key = (production.name, token[1])
            counts[key] = counts.get(key, 0) + sign
    return {k for k, v in counts.items() if v == 1}


@settings(max_examples=25, deadline=None)
@given(source=shallow_program(), batches=wm_batches())
def test_parallel_matches_sequential(source, batches):
    program = parse_program(source)
    sequential = SequentialMatcher(ReteNetwork.compile(program))
    expected = apply_batches(sequential, batches)

    matcher = ParallelMatcher(
        ReteNetwork.compile(program), n_workers=2, n_queues=2, n_lines=32
    )
    try:
        actual = apply_batches(matcher, batches)
    finally:
        matcher.close()
    assert actual == expected
