"""Direct unit tests of node activation logic, including the
update/search phase split the MRSW locking scheme relies on."""

import pytest

from repro.ops5.parser import parse_program
from repro.ops5.wme import WME
from repro.rete.matcher import SequentialMatcher
from repro.rete.memories import MemorySystem
from repro.rete.network import ReteNetwork
from repro.rete.nodes import Activation, JoinNode, MatchContext, NotNode
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, Token


def build(src: str):
    network = ReteNetwork.compile(parse_program(src))
    memory = MemorySystem("hash")
    ctx = MatchContext(memory, MatchStats(), strict=True)
    return network, memory, ctx


def w(klass, tag, **attrs):
    return WME.make(klass, attrs, tag)


class TestJoinPhases:
    SRC = "(p r (a ^x <v>) (b ^y <v>) --> (halt))"

    def test_update_then_search_equals_activate(self):
        net1, _m1, ctx1 = build(self.SRC)
        net2, _m2, ctx2 = build(self.SRC)
        join1 = next(n for n in net1.beta_nodes if isinstance(n, JoinNode))
        join2 = next(n for n in net2.beta_nodes if isinstance(n, JoinNode))

        right = Token.single(w("b", 1, y=5))
        left = Token.single(w("a", 2, x=5))
        # Engine 1: monolithic activate.
        join1.activate(ctx1, Activation(join1, "R", ADD, right))
        out1 = join1.activate(ctx1, Activation(join1, "L", ADD, left))
        # Engine 2: explicit two-phase (what the parallel engine does).
        act_r = Activation(join2, "R", ADD, right)
        key_r = join2.key_for("R", right)
        assert join2.update_memory(ctx2, act_r, key_r) is right
        join2.search_opposite(ctx2, act_r, key_r)
        act_l = Activation(join2, "L", ADD, left)
        key_l = join2.key_for("L", left)
        assert join2.update_memory(ctx2, act_l, key_l) is left
        out2 = join2.search_opposite(ctx2, act_l, key_l)

        assert [a.token.key for a in out1] == [a.token.key for a in out2]

    def test_update_memory_false_stops_on_annihilation(self):
        from repro.parallel.conjugate import ConjugateMemory

        net, _m, _ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        memory = ConjugateMemory(16)
        ctx = MatchContext(memory, MatchStats(), strict=False)
        tok = Token.single(w("a", 3, x=1))
        key = join.key_for("L", tok)
        # Early delete parks; the matching add annihilates (False).
        assert join.update_memory(ctx, Activation(join, "L", DELETE, tok), key) is None
        assert join.update_memory(ctx, Activation(join, "L", ADD, tok), key) is None
        assert memory.total_tokens() == 0
        assert (memory.parked_total, memory.annihilations) == (1, 1)

    def test_delete_emits_delete_children(self):
        net, _m, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        right = Token.single(w("b", 1, y=5))
        left = Token.single(w("a", 2, x=5))
        join.activate(ctx, Activation(join, "R", ADD, right))
        join.activate(ctx, Activation(join, "L", ADD, left))
        out = join.activate(ctx, Activation(join, "L", DELETE, left))
        assert len(out) == 1
        assert out[0].sign == DELETE

    def test_keys_route_by_equality_values(self):
        net, memory, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        join.activate(ctx, Activation(join, "R", ADD, Token.single(w("b", 1, y=5))))
        join.activate(ctx, Activation(join, "R", ADD, Token.single(w("b", 2, y=6))))
        out = join.activate(
            ctx, Activation(join, "L", ADD, Token.single(w("a", 3, x=5)))
        )
        assert len(out) == 1  # only the y=5 bucket is probed
        assert ctx.stats.opp_examined_left == 1


class TestNotNodeCounts:
    SRC = "(p r (a ^x <v>) - (b ^y <v>) --> (halt))"

    def _not_node(self, net):
        return next(n for n in net.beta_nodes if isinstance(n, NotNode))

    def test_count_tracks_blockers(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        left = Token.single(w("a", 1, x=7))
        out = node.activate(ctx, Activation(node, "L", ADD, left))
        assert len(out) == 1 and out[0].sign == ADD

        blocker = Token.single(w("b", 2, y=7))
        out = node.activate(ctx, Activation(node, "R", ADD, blocker))
        assert len(out) == 1 and out[0].sign == DELETE

        out = node.activate(ctx, Activation(node, "R", DELETE, blocker))
        assert len(out) == 1 and out[0].sign == ADD

    def test_second_blocker_silent(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        node.activate(ctx, Activation(node, "L", ADD, Token.single(w("a", 1, x=7))))
        node.activate(ctx, Activation(node, "R", ADD, Token.single(w("b", 2, y=7))))
        out = node.activate(
            ctx, Activation(node, "R", ADD, Token.single(w("b", 3, y=7)))
        )
        assert out == []  # count 1 -> 2: no downstream change

    def test_left_delete_while_blocked_silent(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        left = Token.single(w("a", 1, x=7))
        node.activate(ctx, Activation(node, "R", ADD, Token.single(w("b", 2, y=7))))
        assert node.activate(ctx, Activation(node, "L", ADD, left)) == []
        assert node.activate(ctx, Activation(node, "L", DELETE, left)) == []

    def test_mismatched_blocker_ignored(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        out = node.activate(
            ctx, Activation(node, "L", ADD, Token.single(w("a", 1, x=7)))
        )
        assert len(out) == 1
        out = node.activate(
            ctx, Activation(node, "R", ADD, Token.single(w("b", 2, y=99)))
        )
        assert out == []


class TestTracingProbes:
    def test_probe_fields_set_when_tracing(self):
        net, memory, _ = build("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        ctx = MatchContext(memory, MatchStats(), strict=True, tracing=True)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        join.activate(ctx, Activation(join, "R", ADD, Token.single(w("b", 1, y=5))))
        assert ctx.last_line >= 0
        join.activate(ctx, Activation(join, "L", ADD, Token.single(w("a", 2, x=5))))
        assert ctx.last_opp_examined == 1
