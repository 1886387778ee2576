"""Hash-line sharding: the paper's line locks become shard routing.

The threaded engine guards every token hash-table *line* (the pair of
corresponding left/right buckets for one ``(node-id, key)``) with a
spin lock.  The multiprocess engine removes the locks entirely by
giving each line exactly one *owner* worker: all activations touching
a line are routed to its owner, so the owner mutates its shard of the
token memories single-threaded, and the paper's per-line mutual
exclusion holds by construction instead of by locking.

Routing must be a pure function of ``(node_id, key)`` that every
process computes identically — Python's salted ``hash`` would break
that across processes, so the map is built on
:func:`repro.rete.memories.line_hash` (the same deterministic hash
the memory systems use for line assignment).  The Hypothesis property
suite (``tests/parallel/test_shard_properties.py``) pins down the three
contracts: every pair routes to exactly one worker, routing is stable
across processes regardless of ``PYTHONHASHSEED``, and repartitioning
to a different worker count still covers every line with no overlap.
"""

from __future__ import annotations

from typing import Tuple

from ...rete.memories import line_hash
from ..policy import make_policy


class ShardMap:
    """Deterministic ``(node_id, key) -> line -> owner worker`` map.

    ``n_lines`` mirrors the hash-table size of the memory systems;
    ``n_workers`` is the number of match processes.  How lines are
    dealt to workers is the placement half of a
    :class:`~repro.parallel.policy.Policy`: round-robin interleaving
    (the historical default — consecutive lines on distinct workers)
    or contiguous blocks (the affinity/rebalance layout — neighbouring
    lines share a worker).  Placement is resolved to a flat owners
    tuple at construction, so forked workers inherit the finished map
    and every process agrees by construction.
    """

    __slots__ = ("n_lines", "n_workers", "policy_name", "_owners")

    def __init__(
        self, n_lines: int, n_workers: int, policy: str = "round-robin"
    ) -> None:
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_lines = n_lines
        self.n_workers = n_workers
        pol = make_policy(policy)
        self.policy_name = pol.name
        owners = tuple(pol.place_lines(n_lines, n_workers))
        if len(owners) != n_lines:
            raise ValueError(
                f"policy {pol.name!r} placed {len(owners)} lines, "
                f"expected {n_lines}"
            )
        bad = [o for o in owners if not 0 <= o < n_workers]
        if bad:
            raise ValueError(
                f"policy {pol.name!r} placed lines on workers {sorted(set(bad))} "
                f"outside 0..{n_workers - 1}"
            )
        self._owners = owners

    def line_of(self, node_id: int, key: tuple) -> int:
        """The hash line ``(node_id, key)`` lives on — identical to
        :meth:`repro.rete.memories.MemorySystem.line_of`."""
        return line_hash(node_id, key) % self.n_lines

    def owner_of_line(self, line: int) -> int:
        """The worker owning ``line`` (per the placement policy)."""
        return self._owners[line]

    def route(self, node_id: int, key: tuple) -> int:
        """The worker that must process activations for this line."""
        return self._owners[line_hash(node_id, key) % self.n_lines]

    def lines_owned(self, wid: int) -> Tuple[int, ...]:
        """All lines owned by worker ``wid`` (for partition checks)."""
        if not 0 <= wid < self.n_workers:
            raise ValueError(f"worker id {wid} out of range")
        return tuple(
            line for line, owner in enumerate(self._owners) if owner == wid
        )
