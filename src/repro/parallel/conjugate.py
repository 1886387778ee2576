"""Conjugate token pair handling — the extra-deletes lists (§3.2).

In a parallel matcher tokens are not processed in generation order, so
a ``-`` (delete) token can reach a two-input node before the ``+`` it
cancels.  The paper's solution: park the early delete on the line's
*extra-deletes list*; when the matching ``+`` arrives, both are
discarded without further processing.

:class:`ConjugateMemory` is the hash memory plus those lists.  A node
running in a non-strict :class:`~repro.rete.nodes.MatchContext` calls
it around its own bucket work:

* ``before_insert`` consults the parked deletes; on a hit it removes
  the parked entry and returns True ("annihilated") so the node stores
  nothing and stops;
* ``before_remove`` precedes the node's scan for the delete target;
* ``park`` records a delete whose scan found no target — the node then
  stops (no join).

``before_insert``/``before_remove`` are also the ``mem_insert`` /
``mem_remove`` yield points the schedule harness interleaves threads
on.  All calls for a given (node, side, key) happen under that line's
lock in the parallel engine, so the parked-delete dict needs no locking
of its own beyond the GIL-atomicity of individual dict operations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..rete.memories import MemorySystem
from .hooks import yield_point


class ConjugateMemory(MemorySystem):
    """Hash memory with extra-deletes lists."""

    def __init__(self, n_lines: int = 1024) -> None:
        super().__init__("hash", n_lines)
        self._parked: Dict[Tuple[int, str, tuple], List[tuple]] = {}
        self.annihilations = 0
        self.parked_total = 0

    def before_insert(self, node_id: int, side: str, key: tuple, token_key: tuple) -> bool:
        slot = (node_id, side, key)
        yield_point("mem_insert", slot)
        parked = self._parked.get(slot)
        if not parked or token_key not in parked:
            return False
        parked.remove(token_key)
        if not parked:
            del self._parked[slot]
        self.annihilations += 1
        return True

    def before_remove(self, node_id: int, side: str, key: tuple) -> None:
        yield_point("mem_remove", (node_id, side, key))

    def park(self, node_id: int, side: str, key: tuple, token_key: tuple) -> None:
        self._parked.setdefault((node_id, side, key), []).append(token_key)
        self.parked_total += 1

    def clear(self) -> None:
        super().clear()
        self._parked.clear()

    @property
    def pending_deletes(self) -> int:
        """Parked deletes not yet annihilated (must be 0 after a cycle)."""
        return sum(len(v) for v in self._parked.values())
