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

An item is located for deletion by its index 1, the tuple of its WME
timetags: a join memory holds tokens, ``(wmes, key)``
(:mod:`repro.rete.token`), and a negated node's left memory holds the
lists ``[token, key, count]``, so one scan (``stored[1] == key``)
serves both.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

LEFT = "L"
RIGHT = "R"


def line_hash(node_id: int, key: tuple) -> int:
    """The deterministic (cross-process, cross-run) hash of the bucket
    ``(node_id, key)``.

    Python's built-in ``hash`` of strings is salted per process, which
    would make hash-line assignment — and therefore simulated lock
    contention — irreproducible.  This is FNV-1
    over ``node_id`` and :func:`key_hash`; a caller filing one key under
    many nodes hashes the key once and folds each node in with
    :func:`line_hash_from`.
    """
    return line_hash_from(node_id, key_hash(key))


def line_hash_from(node_id: int, h: int) -> int:
    """:func:`line_hash` of ``node_id`` and a key whose :func:`key_hash`
    is ``h``."""
    node = ((0x811C9DC5 * 0x01000193) ^ node_id) & 0xFFFFFFFF
    return ((node * 0x01000193) ^ h) & 0xFFFFFFFF


def key_hash(key: tuple) -> int:
    """The FNV-1 of a key's values, in one frame: an int hashes to
    itself, a str to its CRC-32, ``None`` to a constant.  A float equal
    to an int hashes as that int (``1.0`` as ``1``, ``-0.0`` as ``0``):
    the tables file ``(n, (1,))`` and ``(n, (1.0,))`` in one bucket, so
    they must be on one line.  Any other value hashes its ``repr``.
    """
    h = 0x811C9DC5
    for value in key:
        if isinstance(value, str):
            v = zlib.crc32(value.encode("utf-8"))
        elif isinstance(value, int):
            v = value & 0xFFFFFFFF
        elif isinstance(value, float):
            if value.is_integer():
                v = int(value) & 0xFFFFFFFF
            else:
                v = zlib.crc32(repr(value).encode("ascii"))
        elif value is None:
            v = 0x9E3779B9
        else:
            v = zlib.crc32(repr(value).encode("utf-8"))
        h = ((h * 0x01000193) ^ v) & 0xFFFFFFFF
    return h


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
        return line_hash_from(node_id, key_hash(key)) % self.n_lines

    def bucket_sizes(self, side: str) -> List[int]:
        """Chain lengths per bucket — used by the hash-size ablation."""
        table = self.left if side == LEFT else self.right
        return [len(bucket) for bucket in table.values()]

    def total_tokens(self) -> int:
        return sum(self.bucket_sizes(LEFT)) + sum(self.bucket_sizes(RIGHT))
