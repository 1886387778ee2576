"""Token memories: the paper's vs1 (linear lists) and vs2 (hash tables)
designs, as one class.

A :class:`MemorySystem` is the paper's two global tables, ``left`` and
``right``, each mapping ``(node_id, key)`` to a *bucket* — a plain list
of items.  It hands the tables out; the two-input nodes do the list
work on a bucket (append, scan-and-delete, ``len``) inside their own
activation frame, so a memory operation costs a dict lookup, not a
call::

    bucket = memory.left.get((node_id, key))      # None when empty

``key`` is the tuple of values of the equality-tested variables (empty
for cross-product nodes — which is precisely why cross-product
productions pile into a single line and serialize, the Tourney
phenomenon of §4.2).  The linear design is the *unkeyed* case of the
same layout: nodes file every token under the key ``()`` and evaluate
all their tests, equality included, against each candidate — so an
opposite-memory probe examines the whole opposite memory and a delete
scans the whole same-side list, the counts of Tables 4-2/4-3.  A bucket
that empties is dropped from its table.

``line_of(node_id, key)`` is the hash-table *line* (pair of
corresponding left/right buckets) an operation touches; this is what
the parallel implementations lock.

Items must expose a ``.key`` attribute (a tuple of WME timetags) used to
locate them for deletion: plain :class:`~repro.rete.token.Token` for
join memories, :class:`NotEntry` for negated-node left memories.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, List, Tuple

from .token import Token

LEFT = "L"
RIGHT = "R"


class NotEntry:
    """A left token of a negated node together with its match count."""

    __slots__ = ("token", "count", "key")

    def __init__(self, token: Token, count: int = 0) -> None:
        self.token = token
        self.count = count
        self.key = token.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NotEntry({self.token}, count={self.count})"


def stable_hash(value: Hashable) -> int:
    """A deterministic (cross-process, cross-run) hash for key tuples.

    Python's built-in ``hash`` of strings is salted per process, which
    would make hash-line assignment — and therefore simulated lock
    contention — irreproducible.
    """
    if isinstance(value, tuple):
        h = 0x811C9DC5
        for item in value:
            h = (h * 0x01000193) ^ (stable_hash(item) & 0xFFFFFFFF)
            h &= 0xFFFFFFFF
        return h
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bool):  # pragma: no cover - bools unused in OPS5
        return int(value)
    if isinstance(value, int):
        return value & 0xFFFFFFFF
    if isinstance(value, float):
        return zlib.crc32(repr(value).encode("ascii"))
    if value is None:
        return 0x9E3779B9
    return zlib.crc32(repr(value).encode("utf-8"))


Table = Dict[Tuple[int, tuple], List]


class MemorySystem:
    """The token memories of one matcher: two tables of buckets.

    ``kind='hash'`` (vs2) keys buckets by the equality-test values and
    spreads ``(node_id, key)`` over ``n_lines`` lines — several keys can
    collide into one line, exactly like the fixed-size table of the C
    implementation.  ``kind='linear'`` (vs1) is unkeyed: nodes pass
    ``()`` for every key, and a node is its own pseudo-line.
    """

    def __init__(self, kind: str = "hash", n_lines: int = 1024) -> None:
        if kind not in ("hash", "linear"):
            raise ValueError(f"unknown memory kind {kind!r}")
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        self.kind = kind
        self.keyed = kind == "hash"
        self.n_lines = n_lines
        self.left: Table = {}
        self.right: Table = {}

    def clear(self) -> None:
        self.left.clear()
        self.right.clear()

    def line_of(self, node_id: int, key: tuple) -> int:
        if not self.keyed:
            return node_id
        return stable_hash((node_id, key)) % self.n_lines

    def bucket_sizes(self, side: str) -> List[int]:
        """Chain lengths per bucket — used by the hash-size ablation."""
        table = self.left if side == LEFT else self.right
        return [len(bucket) for bucket in table.values()]

    def total_tokens(self) -> int:
        return sum(self.bucket_sizes(LEFT)) + sum(self.bucket_sizes(RIGHT))
