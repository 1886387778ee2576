"""Drive a memory the way a two-input node does.

Memories hand out buckets and the nodes do the list work, so "insert",
"remove" and "probe the opposite side" are no longer methods of a
memory: they are what :meth:`TwoInputNode.activate` does with an
arriving ``+`` or ``-`` token.  :class:`NodeMemory` runs exactly that
frame against bare nodes (no tests, no children, a key function that
answers whatever key the caller names), so the memory unit tests
exercise the real store/delete path (strict error, conjugate hooks,
examined counts) without compiling a network.
"""

from repro.ops5.wme import WME
from repro.parallel.conjugate import ConjugateMemory
from repro.rete.memories import LEFT, NotEntry
from repro.rete.nodes import JoinNode, MatchContext, NotNode
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, Token


class NodeMemory:
    def __init__(self, memory):
        self.memory = memory
        # Early deletes park on a conjugate memory and raise elsewhere.
        strict = not isinstance(memory, ConjugateMemory)
        self.ctx = MatchContext(memory, MatchStats(), strict=strict, tracing=True)
        self._nodes = {}
        self._key = ()

    def __getattr__(self, name):
        # Everything else (counters, clear, line_of, ...) is the memory's own.
        return getattr(self.memory, name)

    def _activate(self, node_id, side, key, sign, token, cls=JoinNode):
        if node_id not in self._nodes:
            self._nodes[node_id] = cls(
                node_id, (), (), None, None, lambda _wmes: self._key, lambda _w: self._key
            )
        self._key = key
        assert self._nodes[node_id].activate(self.ctx, side, sign, token) == []

    def _bucket(self, node_id, side, key):
        # What a node's ``activate`` does: unkeyed memories file
        # everything under ``()``.
        table = self.memory.left if side == LEFT else self.memory.right
        return table.get((node_id, key if self.memory.keyed else ()), ())

    def insert(self, node_id, side, key, item) -> bool:
        """True when stored, False when a parked delete annihilated it.
        A :class:`NotEntry` is what a not node stores for a left token."""
        before = len(self._bucket(node_id, side, key))
        if isinstance(item, NotEntry):
            self._activate(node_id, side, key, ADD, item.token, NotNode)
        else:
            self._activate(node_id, side, key, ADD, item)
        return len(self._bucket(node_id, side, key)) > before

    def remove(self, node_id, side, key, token_key):
        """``(stored item | None, tokens examined)``."""
        before = list(self._bucket(node_id, side, key))
        found = next((s for s in before if s.key == token_key), None)
        self.ctx.last_same_examined = 0
        twin = Token.of(tuple(WME.make("memdriver", {}, tag) for tag in token_key))
        self._activate(node_id, side, key, DELETE, twin)
        assert len(self._bucket(node_id, side, key)) == len(before) - (found is not None)
        return found, self.ctx.last_same_examined

    def lookup_opposite(self, node_id, side, key):
        """``(opposite bucket, tokens a probe examines)``."""
        bucket = self._bucket(node_id, "R" if side == LEFT else LEFT, key)
        return bucket, len(bucket)

    def side_size(self, node_id, side) -> int:
        table = self.memory.left if side == LEFT else self.memory.right
        return sum(len(b) for (nid, _key), b in table.items() if nid == node_id)
