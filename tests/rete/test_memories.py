"""Unit tests for the linear (vs1) and hash (vs2) memory systems,
driven through the node code that does their list work
(:mod:`tests.rete.memdriver`)."""

import pytest

from repro.rete.memories import MemorySystem, NotEntry, stable_hash
from repro.ops5.wme import WME
from repro.rete.token import Token
from tests.rete.memdriver import NodeMemory


def tok(*tags: int) -> Token:
    return Token.of(tuple(WME.make("c", {}, t) for t in tags))


@pytest.fixture(params=["linear", "hash"])
def memory(request):
    return NodeMemory(MemorySystem(request.param))


class TestCommonBehaviour:
    def test_insert_then_remove(self, memory):
        t = tok(1)
        assert memory.insert(5, "L", ("k",), t) is True
        found, examined = memory.remove(5, "L", ("k",), t.key)
        assert found is t
        assert examined == 1
        assert memory.side_size(5, "L") == 0

    def test_remove_missing_raises_when_strict(self, memory):
        """In-order matching never deletes what it did not store (the
        non-strict twin, parking, is tests/parallel/test_conjugate.py)."""
        memory.insert(5, "L", ("k",), tok(1))
        with pytest.raises(RuntimeError, match="delete of unknown token"):
            memory.remove(5, "L", ("k",), (99,))
        assert memory.side_size(5, "L") == 1

    def test_side_size_tracks(self, memory):
        for i in range(4):
            memory.insert(1, "R", ("k",), tok(i))
        assert memory.side_size(1, "R") == 4
        assert memory.side_size(1, "L") == 0

    def test_lookup_opposite_side(self, memory):
        t = tok(1)
        memory.insert(1, "R", ("k",), t)
        items, examined = memory.lookup_opposite(1, "L", ("k",))
        assert list(items) == [t]
        assert examined == 1

    def test_nodes_isolated(self, memory):
        memory.insert(1, "L", ("k",), tok(1))
        assert memory.side_size(2, "L") == 0
        items, _ = memory.lookup_opposite(2, "R", ("k",))
        assert list(items) == []

    def test_clear(self, memory):
        memory.insert(1, "L", ("k",), tok(1))
        memory.clear()
        assert memory.total_tokens() == 0

    def test_items_iteration(self, memory):
        memory.insert(3, "L", ("a",), tok(1))
        memory.insert(3, "L", ("b",), tok(2))
        assert memory.side_size(3, "L") == 2
        assert memory.total_tokens() == 2


class TestLinearScans:
    def test_opposite_examines_everything(self):
        mem = NodeMemory(MemorySystem("linear"))
        for i in range(10):
            mem.insert(1, "R", (i,), tok(i))
        _, examined = mem.lookup_opposite(1, "L", (3,))
        assert examined == 10  # key ignored: full scan

    def test_delete_examines_up_to_position(self):
        mem = NodeMemory(MemorySystem("linear"))
        tokens = [tok(i) for i in range(10)]
        for t in tokens:
            mem.insert(1, "L", (), t)
        _, examined = mem.remove(1, "L", (), tokens[6].key)
        assert examined == 7


class TestHashBuckets:
    def test_opposite_examines_bucket_only(self):
        mem = NodeMemory(MemorySystem("hash"))
        for i in range(10):
            mem.insert(1, "R", (i % 2,), tok(i))
        _, examined = mem.lookup_opposite(1, "L", (0,))
        assert examined == 5

    def test_empty_bucket_nonempty_memory(self):
        mem = NodeMemory(MemorySystem("hash"))
        mem.insert(1, "R", ("x",), tok(1))
        items, examined = mem.lookup_opposite(1, "L", ("y",))
        assert list(items) == []
        assert examined == 0
        assert mem.side_size(1, "R") == 1

    def test_bucket_cleanup_on_empty(self):
        mem = NodeMemory(MemorySystem("hash"))
        t = tok(1)
        mem.insert(1, "L", ("k",), t)
        mem.remove(1, "L", ("k",), t.key)
        assert mem.bucket_sizes("L") == []
        assert mem.left == {}

    def test_line_of_stable_and_in_range(self):
        mem = MemorySystem(n_lines=64)
        line = mem.line_of(7, ("red", 3))
        assert 0 <= line < 64
        assert line == mem.line_of(7, ("red", 3))

    def test_lines_differ_by_key(self):
        mem = MemorySystem(n_lines=4096)
        lines = {mem.line_of(7, (c,)) for c in ("a", "b", "c", "d", "e")}
        assert len(lines) > 1

    def test_n_lines_validation(self):
        with pytest.raises(ValueError):
            MemorySystem(n_lines=0)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(("red", 1, 2.5)) == stable_hash(("red", 1, 2.5))

    def test_distinguishes_values(self):
        assert stable_hash(("a",)) != stable_hash(("b",))

    def test_handles_none(self):
        assert isinstance(stable_hash((None,)), int)

    def test_nested_tuples(self):
        assert stable_hash(((1, "x"), 2)) != stable_hash(((1, "y"), 2))


class TestNotEntry:
    def test_wraps_token_key(self):
        t = tok(3, 4)
        entry = NotEntry(t, count=2)
        assert entry.key == (3, 4)
        assert entry.count == 2

    def test_storable_in_memories(self, memory):
        t = tok(5)
        memory.insert(1, "L", (), NotEntry(t))
        found, _ = memory.remove(1, "L", (), t.key)
        assert isinstance(found, NotEntry)


class TestFactory:
    def test_make_memory(self):
        assert MemorySystem("linear").kind == "linear"
        assert MemorySystem("hash").kind == "hash"
        assert MemorySystem().keyed and not MemorySystem("linear").keyed

    def test_linear_lines_are_per_node(self):
        mem = MemorySystem("linear")
        assert mem.line_of(7, ("red",)) == mem.line_of(7, ("blue",)) == 7

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MemorySystem("btree")
