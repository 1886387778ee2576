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

from ...rete.memories import key_hash, line_hash, line_hash_from


class ShardMap:
    """Deterministic ``(node_id, key) -> line -> owner worker`` map.

    ``n_lines`` mirrors the hash-table size of the memory systems;
    ``n_workers`` is the number of match processes.  Line ``l`` is
    owned by worker ``l % n_workers``: the lines are already hashed, so
    no other layout would give neighbouring lines anything in common.
    The owners tuple is built at construction, so forked workers
    inherit the finished map and every process agrees by construction.
    """

    __slots__ = ("n_lines", "n_workers", "_owners")

    def __init__(self, n_lines: int, n_workers: int) -> None:
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_lines = n_lines
        self.n_workers = n_workers
        self._owners = tuple(line % n_workers for line in range(n_lines))

    def line_of(self, node_id: int, key: tuple) -> int:
        """The hash line ``(node_id, key)`` lives on — identical to
        :meth:`repro.rete.memories.MemorySystem.line_of`."""
        return line_hash(node_id, key) % self.n_lines

    def owner_of_line(self, line: int) -> int:
        """The worker owning ``line``."""
        return self._owners[line]

    def route(self, node_id: int, key: tuple) -> int:
        """The worker that must process activations for this line."""
        return self._owners[line_hash_from(node_id, key_hash(key)) % self.n_lines]

    def route_hashed(self, node_id: int, h: int) -> int:
        """:meth:`route` for a key whose :func:`key_hash` is ``h``."""
        return self._owners[line_hash_from(node_id, h) % self.n_lines]

    def lines_owned(self, wid: int) -> Tuple[int, ...]:
        """All lines owned by worker ``wid`` (for partition checks)."""
        if not 0 <= wid < self.n_workers:
            raise ValueError(f"worker id {wid} out of range")
        return tuple(
            line for line, owner in enumerate(self._owners) if owner == wid
        )
