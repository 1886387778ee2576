"""Hypothesis property tests for the mp engine's shard routing.

The multiprocess backend replaces the paper's per-line locks with line
*ownership* (:class:`repro.parallel.mp.shard.ShardMap`); its
correctness rests on three contracts, each pinned here as a property:

1. **Single owner**: every ``(node_id, key)`` pair routes to exactly
   one worker, and that worker is in range.
2. **Cross-process stability**: routing is a pure function of the
   inputs — identical in a subprocess run under a *different*
   ``PYTHONHASHSEED``, because the map is built on ``stable_hash``,
   never on Python's salted ``hash()``.
3. **Repartitioning covers**: for any worker count, the per-worker
   ``lines_owned`` sets partition ``range(n_lines)`` — no line is
   orphaned and none is owned twice, so changing the worker count
   between runs can never lose or duplicate a token line.
"""

from __future__ import annotations

import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.parallel.mp.shard import ShardMap
from repro.rete.memories import stable_hash

#: Constants as they appear in real join keys: OPS5 attribute values.
_scalar = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.none(),
)

_keys = st.tuples() | st.tuples(_scalar) | st.tuples(_scalar, _scalar) | st.tuples(
    _scalar, _scalar, _scalar
)

_node_ids = st.integers(min_value=0, max_value=50_000)

_n_lines = st.integers(min_value=1, max_value=4096)
_n_workers = st.integers(min_value=1, max_value=9)


class TestSingleOwner:
    @given(node_id=_node_ids, key=_keys, n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=200, deadline=None)
    def test_route_is_one_worker_in_range(self, node_id, key, n_lines, n_workers):
        shard = ShardMap(n_lines=n_lines, n_workers=n_workers)
        owner = shard.route(node_id, key)
        assert 0 <= owner < n_workers
        # The same pair asked again routes identically (pure function).
        assert shard.route(node_id, key) == owner
        # And the decomposition agrees with itself.
        line = shard.line_of(node_id, key)
        assert 0 <= line < n_lines
        assert shard.owner_of_line(line) == owner
        # Exactly one worker owns the line this pair lives on.
        owners = [w for w in range(n_workers) if line in shard.lines_owned(w)]
        assert owners == [owner]

    @given(node_id=_node_ids, key=_keys, n_lines=_n_lines)
    @settings(max_examples=100, deadline=None)
    def test_line_matches_memory_system(self, node_id, key, n_lines):
        """Shard lines are the *same* lines the hash memories use, so
        line ownership really is ownership of the memory buckets."""
        from repro.rete.memories import MemorySystem

        shard = ShardMap(n_lines=n_lines, n_workers=3)
        memory = MemorySystem(n_lines=n_lines)
        assert shard.line_of(node_id, key) == memory.line_of(node_id, key)


class TestRepartitioning:
    @given(n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=200, deadline=None)
    def test_lines_partition_exactly(self, n_lines, n_workers):
        shard = ShardMap(n_lines=n_lines, n_workers=n_workers)
        seen: set = set()
        for wid in range(n_workers):
            owned = set(shard.lines_owned(wid))
            assert not owned & seen, "line owned by two workers"
            seen |= owned
        assert seen == set(range(n_lines)), "orphaned lines"

    @given(node_id=_node_ids, key=_keys, n_lines=_n_lines)
    @settings(max_examples=100, deadline=None)
    def test_line_survives_repartitioning(self, node_id, key, n_lines):
        """Changing the worker count moves lines between workers but
        never changes *which line* a pair lives on — token placement
        in the hash memories is worker-count independent."""
        lines = {
            ShardMap(n_lines=n_lines, n_workers=k).line_of(node_id, key)
            for k in (1, 2, 5, 8)
        }
        assert len(lines) == 1


#: Pairs covering every stable_hash branch: ints, strs, floats, None,
#: nesting.  Literals only — this source text is exec'd in a subprocess.
_CROSS_PROCESS_PAIRS = [
    (0, ()),
    (17, ("alpha", 3)),
    (123, (None, -7, "x")),
    (50_000, (2.5, "goal", 0)),
    (999, (("nested", 1), "deep")),
]

_CHILD_SOURCE = """
import sys
sys.path.insert(0, {src!r})
from repro.parallel.mp.shard import ShardMap
shard = ShardMap(n_lines=1024, n_workers=7)
pairs = {pairs!r}
print([shard.route(n, k) for n, k in pairs])
"""


class TestCrossProcessStability:
    def test_routing_identical_under_other_hashseed(self):
        """The property the paper's line locks got for free and a
        salted ``hash()`` would silently break: every process must
        agree on who owns a line.  A child interpreter with a forced,
        different ``PYTHONHASHSEED`` must route identically."""
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        src_dir = os.path.abspath(src_dir)
        shard = ShardMap(n_lines=1024, n_workers=7)
        here = [shard.route(n, k) for n, k in _CROSS_PROCESS_PAIRS]

        child = _CHILD_SOURCE.format(src=src_dir, pairs=_CROSS_PROCESS_PAIRS)
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", child],
                capture_output=True, text=True, env=env, check=True,
            )
            assert eval(out.stdout.strip()) == here, (
                f"routing diverged under PYTHONHASHSEED={seed}"
            )

    @given(node_id=_node_ids, key=_keys)
    @settings(max_examples=100, deadline=None)
    def test_stable_hash_is_route_input(self, node_id, key):
        """Routing never consults ``hash()``: it is fully determined by
        ``stable_hash``, which is itself deterministic by construction."""
        shard = ShardMap(n_lines=64, n_workers=3)
        expected = (stable_hash((node_id, key)) % 64) % 3
        assert shard.route(node_id, key) == expected
