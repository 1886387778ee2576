"""Compile-once network cache, keyed by program content hash.

Compiling a Rete network (and the RHS threaded code) is the expensive,
per-*program* part of session setup; working memory and node memories
are the cheap, per-*session* part.  The cache does the former exactly
once per distinct program text and hands every session the same
:class:`~repro.rete.network.ReteNetwork` and ``CompiledRHS`` table.

Sharing is safe because network nodes hold no per-run token state: all
memories live behind the matcher's :class:`~repro.rete.nodes.MatchContext`
(see ``rete/nodes.py``), and ``CompiledRHS.execute`` builds a fresh
environment per firing.  This is the Hiperfact framing — Rete as an
in-memory fact-processing service — layered over the paper's engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..ops5.astnodes import Program
from ..ops5.parser import parse_program
from ..ops5.rhs import CompiledRHS
from ..rete.network import ReteNetwork


@dataclass
class CacheEntry:
    """One compiled program: parsed AST, network, and RHS table."""

    key: str
    program: Program
    network: ReteNetwork
    rhs_table: Dict[str, CompiledRHS]
    sessions_served: int = 0


class NetworkCache:
    """Content-hash keyed cache of compiled networks.

    ``get`` may raise any :class:`~repro.ops5.errors.Ops5Error` the
    parser/compiler raises for a bad program; nothing is cached then.
    """

    def __init__(self, mode: str = "compiled") -> None:
        self.mode = mode
        self._entries: Dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, source: str) -> Tuple[CacheEntry, bool]:
        """The entry for ``source``, compiling on first sight.

        Returns ``(entry, cached)`` where ``cached`` says whether the
        network was reused.
        """
        key = ReteNetwork.compile_key(source, self.mode)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                entry.sessions_served += 1
                return entry, True
        # Compile outside the lock: parsing big programs is slow and
        # a losing race just compiles twice, it never corrupts.
        program = parse_program(source)
        network = ReteNetwork.compile(program, mode=self.mode, key=key)
        rhs_table = {p.name: CompiledRHS(p) for p in program.productions}
        fresh = CacheEntry(
            key=key, program=program, network=network, rhs_table=rhs_table
        )
        with self._lock:
            entry = self._entries.setdefault(key, fresh)
            if entry is fresh:
                self.misses += 1
            else:
                self.hits += 1
            entry.sessions_served += 1
        return entry, entry is not fresh

    def stats(self) -> Dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "programs": {
                    entry.key[:12]: {
                        "productions": len(entry.program.productions),
                        "sessions_served": entry.sessions_served,
                    }
                    for entry in self._entries.values()
                },
            }
