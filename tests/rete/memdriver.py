"""Drive a memory the way a two-input node does.

Memories hand out buckets and the nodes do the list work, so "insert",
"remove" and "probe the opposite side" are no longer methods of a
memory: they are what :meth:`TwoInputNode.update_memory` and a node's
opposite-bucket lookup do.  :class:`NodeMemory` runs exactly that code
against bare join nodes, so the memory unit tests exercise the real
store/delete path (strict error, conjugate hooks, examined counts)
without compiling a network.
"""

from repro.parallel.conjugate import ConjugateMemory
from repro.rete.evaluators import make_evaluator
from repro.rete.memories import LEFT
from repro.rete.nodes import Activation, JoinNode, MatchContext
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, Token


class NodeMemory:
    def __init__(self, memory):
        self.memory = memory
        # Early deletes park on a conjugate memory and raise elsewhere.
        strict = not isinstance(memory, ConjugateMemory)
        self.ctx = MatchContext(memory, MatchStats(), strict=strict, tracing=True)
        self._nodes = {}

    def __getattr__(self, name):
        # Everything else (counters, clear, line_of, ...) is the memory's own.
        return getattr(self.memory, name)

    def _node(self, node_id):
        if node_id not in self._nodes:
            evaluator = make_evaluator("compiled")
            always = evaluator.join_tests(())
            self._nodes[node_id] = JoinNode(
                node_id, (), (), always, always, *evaluator.key_fns(())
            )
        return self._nodes[node_id]

    def _key(self, key):
        # What a node's ``activate`` does: unkeyed memories file
        # everything under ``()``.
        return key if self.memory.keyed else ()

    def insert(self, node_id, side, key, item) -> bool:
        """True when stored, False when a parked delete annihilated it."""
        node = self._node(node_id)
        act = Activation(node, side, ADD, getattr(item, "token", item))
        return node.update_memory(self.ctx, act, self._key(key), item) is not None

    def remove(self, node_id, side, key, token_key):
        """``(stored item | None, tokens examined)``."""
        node = self._node(node_id)
        self.ctx.last_same_examined = 0
        act = Activation(node, side, DELETE, Token((), token_key))
        found = node.update_memory(self.ctx, act, self._key(key))
        return found, self.ctx.last_same_examined

    def lookup_opposite(self, node_id, side, key):
        """``(opposite bucket, tokens a probe examines)``."""
        table = self.memory.right if side == LEFT else self.memory.left
        bucket = table.get((node_id, self._key(key)), ())
        return bucket, len(bucket)

    def side_size(self, node_id, side) -> int:
        table = self.memory.left if side == LEFT else self.memory.right
        return sum(len(b) for (nid, _key), b in table.items() if nid == node_id)
