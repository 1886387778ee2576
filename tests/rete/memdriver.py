"""Drive a memory the way a two-input node activation does.

Memories hand out buckets and the kernel does the list work, so
"insert", "remove" and "probe the opposite side" are no longer methods
of a memory: they are what an activation in :func:`repro.rete.kernel.drain`
does with an arriving ``+`` or ``-`` token.  :class:`NodeMemory` runs
exactly that loop against bare nodes (no tests, no children, a key
function that answers whatever key the caller names), so the memory
unit tests exercise the real store/delete path (strict error, conjugate
hooks, examined counts) without compiling a network.
"""

from repro.ops5.wme import WME
from repro.parallel.conjugate import ConjugateMemory
from repro.rete import kernel
from repro.rete.memories import LEFT
from repro.rete.nodes import JoinNode, MatchContext, NotNode
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, of


class NodeMemory:
    def __init__(self, memory):
        self.memory = memory
        # Early deletes park on a conjugate memory and raise elsewhere.
        strict = not isinstance(memory, ConjugateMemory)
        self.ctx = MatchContext(memory, MatchStats(), strict=strict)
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
        children = []
        assert kernel.drain(self.ctx, [(self._nodes[node_id], side, sign, token)],
                            children.extend) == 1
        assert children == []

    def _bucket(self, node_id, side, key):
        # What an activation does: unkeyed memories file
        # everything under ``()``.
        table = self.memory.left if side == LEFT else self.memory.right
        return table.get((node_id, key if self.memory.keyed else ()), ())

    def insert(self, node_id, side, key, item) -> bool:
        """True when stored, False when a parked delete annihilated it.
        A list ``[token, key, count]`` is what a not node stores for a
        left token: passing one stores its token through a not node."""
        before = len(self._bucket(node_id, side, key))
        if isinstance(item, list):
            self._activate(node_id, side, key, ADD, item[0], NotNode)
        else:
            self._activate(node_id, side, key, ADD, item)
        return len(self._bucket(node_id, side, key)) > before

    def remove(self, node_id, side, key, token_key):
        """``(stored item | None, tokens examined)``."""
        before = list(self._bucket(node_id, side, key))
        found = next((s for s in before if s[1] == token_key), None)
        stats = self.ctx.stats
        examined = stats.same_del_examined_left + stats.same_del_examined_right
        twin = of(tuple(WME.make("memdriver", {}, tag) for tag in token_key))
        self._activate(node_id, side, key, DELETE, twin)
        examined = stats.same_del_examined_left + stats.same_del_examined_right - examined
        assert len(self._bucket(node_id, side, key)) == len(before) - (found is not None)
        return found, examined

    def lookup_opposite(self, node_id, side, key):
        """``(opposite bucket, tokens a probe examines)``."""
        bucket = self._bucket(node_id, "R" if side == LEFT else LEFT, key)
        return bucket, len(bucket)

    def side_size(self, node_id, side) -> int:
        table = self.memory.left if side == LEFT else self.memory.right
        return sum(len(b) for (nid, _key), b in table.items() if nid == node_id)
