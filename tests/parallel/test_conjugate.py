"""Unit tests for conjugate-pair handling (extra-deletes lists)."""

import pytest

from repro.ops5.wme import WME
from repro.parallel.conjugate import ConjugateMemory
from repro.rete.token import Token, of
from tests.rete.memdriver import NodeMemory


def tok(tag: int) -> Token:
    return of((WME.make("c", {}, tag),))


@pytest.fixture
def memory() -> NodeMemory:
    return NodeMemory(ConjugateMemory(n_lines=16))


class TestConjugatePairs:
    def test_normal_order_passthrough(self, memory):
        t = tok(1)
        assert memory.insert(1, "L", (), t) is True
        found, _ = memory.remove(1, "L", (), t[1])
        assert found is t
        assert memory.pending_deletes == 0

    def test_early_delete_parks(self, memory):
        found, examined = memory.remove(1, "L", (), (7,))
        assert found is None
        assert memory.pending_deletes == 1
        assert memory.parked_total == 1

    def test_add_annihilates_parked_delete(self, memory):
        memory.remove(1, "L", (), (7,))
        live = memory.insert(1, "L", (), tok(7))
        assert live is False
        assert memory.annihilations == 1
        assert memory.pending_deletes == 0
        # And nothing was actually stored.
        assert memory.side_size(1, "L") == 0

    def test_unrelated_add_not_annihilated(self, memory):
        memory.remove(1, "L", (), (7,))
        assert memory.insert(1, "L", (), tok(8)) is True
        assert memory.pending_deletes == 1

    def test_parking_scoped_by_node_side_key(self, memory):
        memory.remove(1, "L", (), (7,))
        # Same token key but different node: stores normally.
        assert memory.insert(2, "L", (), tok(7)) is True
        # Different side: stores normally.
        assert memory.insert(1, "R", (), tok(7)) is True
        assert memory.pending_deletes == 1

    def test_double_park_double_annihilate(self, memory):
        memory.remove(1, "L", (), (7,))
        memory.remove(1, "L", (), (7,))
        assert memory.pending_deletes == 2
        assert memory.insert(1, "L", (), tok(7)) is False
        assert memory.insert(1, "L", (), tok(7)) is False
        assert memory.pending_deletes == 0

    def test_clear_resets_parked(self, memory):
        memory.remove(1, "L", (), (7,))
        memory.clear()
        assert memory.pending_deletes == 0

    def test_passthrough_surface(self, memory):
        t = tok(3)
        memory.insert(4, "R", ("k",), t)
        items, examined = memory.lookup_opposite(4, "L", ("k",))
        assert list(items) == [t]
        assert memory.side_size(4, "R") == 1
        assert memory.total_tokens() == 1
        assert isinstance(memory.line_of(4, ("k",)), int)
        assert memory.kind == "hash"
