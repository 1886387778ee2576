"""Direct unit tests of node activation logic, including where the
§3.2 modification bracket sits inside the one activation frame."""

import pytest

from repro.ops5.parser import parse_program
from repro.ops5.wme import WME
from repro.parallel.conjugate import ConjugateMemory
from repro.rete.memories import MemorySystem
from repro.rete.network import ReteNetwork
from repro.rete.nodes import JoinNode, MatchContext, NotNode
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, of


def build(src: str):
    network = ReteNetwork.compile(parse_program(src))
    memory = MemorySystem("hash")
    ctx = MatchContext(memory, MatchStats(), strict=True)
    return network, memory, ctx


def w(klass, tag, **attrs):
    return WME.make(klass, attrs, tag)


class BracketLog:
    """Line locks that only write down when the bracket opens and
    closes; ``probe`` is a residual test that writes down each search
    step into the same log."""

    def __init__(self):
        self.events = []

    def enter_modify(self, line):
        self.events.append(("enter_modify", line))

    def exit_modify(self, line):
        self.events.append(("exit_modify", line))

    def probe(self, wmes, w):
        self.events.append("search")
        return True


def bracketed(src, cls):
    """(node, ctx, log) with the log attached as ``ctx.locks`` on line 9
    and as the node's residual test."""
    net, _memory, ctx = build(src)
    node = next(n for n in net.beta_nodes if isinstance(n, cls))
    log = ctx.locks = BracketLog()
    ctx.last_line = 9
    node.tests_fn = log.probe
    return node, ctx, log


class TestJoinPhases:
    SRC = "(p r (a ^x <v>) (b ^y <v>) --> (halt))"

    def test_join_holds_the_bracket_for_the_store_only(self):
        """The memory update runs inside the modification lock and the
        opposite search outside it — and the children are what an
        unlocked activation outputs."""
        net, _m, plain = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        node, ctx, log = bracketed(self.SRC, JoinNode)
        right = of((w("b", 1, y=5),))
        left = of((w("a", 2, x=5),))

        assert node.activate(ctx, "R", ADD, right) == []
        assert log.events == [("enter_modify", 9), ("exit_modify", 9)]
        del log.events[:]
        out = node.activate(ctx, "L", ADD, left)
        assert log.events == [("enter_modify", 9), ("exit_modify", 9), "search"]

        join.activate(plain, "R", ADD, right)
        expected = join.activate(plain, "L", ADD, left)
        assert [t[1:3] + (t[3][1],) for t in out] == [("L", ADD, (2, 1))]
        assert [t[3] for t in out] == [t[3] for t in expected]

    def test_not_node_holds_the_bracket_throughout(self):
        """A negated node mutates left-entry counts while it searches."""
        node, ctx, log = bracketed(TestNotNodeCounts.SRC, NotNode)
        node.activate(ctx, "L", ADD, of((w("a", 1, x=7),)))
        del log.events[:]
        out = node.activate(ctx, "R", ADD, of((w("b", 2, y=7),)))
        assert log.events == [("enter_modify", 9), "search", ("exit_modify", 9)]
        assert [t[2] for t in out] == [DELETE]

    @pytest.mark.parametrize("cls", [JoinNode, NotNode])
    def test_raise_inside_the_bracket_releases_it(self, cls):
        src = self.SRC if cls is JoinNode else TestNotNodeCounts.SRC
        node, ctx, log = bracketed(src, cls)
        with pytest.raises(RuntimeError, match="delete of unknown token"):
            node.activate(ctx, "L", DELETE, of((w("a", 3, x=1),)))
        assert log.events == [("enter_modify", 9), ("exit_modify", 9)]

    def test_unknown_delete_message_prints_timetags(self):
        """A strict delete with no stored twin names the token by its
        timetags, never by the WMEs' reprs."""
        net, _m, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        with pytest.raises(RuntimeError) as exc:
            join.activate(ctx, "L", DELETE, of((w("a", 3, x=1), w("b", 7, y=1))))
        assert str(exc.value) == (
            f"delete of unknown token [3 7] at join node {join.node_id}"
        )

    def test_annihilated_add_stops_the_activation(self):
        net, _m, _ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        memory = ConjugateMemory(16)
        ctx = MatchContext(memory, MatchStats(), strict=False)
        join.activate(ctx, "R", ADD, of((w("b", 1, y=1),)))
        tok = of((w("a", 3, x=1),))
        # Early delete parks; the matching add annihilates: neither is
        # stored, neither searches the waiting right token.
        assert join.activate(ctx, "L", DELETE, tok) == []
        assert join.activate(ctx, "L", ADD, tok) == []
        assert memory.total_tokens() == 1
        assert (memory.parked_total, memory.annihilations) == (1, 1)
        assert ctx.stats.opp_count_left == 0

    def test_delete_emits_delete_children(self):
        net, _m, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        right = of((w("b", 1, y=5),))
        left = of((w("a", 2, x=5),))
        join.activate(ctx, "R", ADD, right)
        join.activate(ctx, "L", ADD, left)
        out = join.activate(ctx, "L", DELETE, left)
        assert len(out) == 1
        assert out[0][2] == DELETE

    def test_keys_route_by_equality_values(self):
        net, memory, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        join.activate(ctx, "R", ADD, of((w("b", 1, y=5),)))
        join.activate(ctx, "R", ADD, of((w("b", 2, y=6),)))
        out = join.activate(ctx, "L", ADD, of((w("a", 3, x=5),)))
        assert len(out) == 1  # only the y=5 bucket is probed
        assert ctx.stats.opp_examined_left == 1


class TestNotNodeCounts:
    SRC = "(p r (a ^x <v>) - (b ^y <v>) --> (halt))"

    def _not_node(self, net):
        return next(n for n in net.beta_nodes if isinstance(n, NotNode))

    def test_count_tracks_blockers(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        left = of((w("a", 1, x=7),))
        out = node.activate(ctx, "L", ADD, left)
        assert len(out) == 1 and out[0][2] == ADD

        blocker = of((w("b", 2, y=7),))
        out = node.activate(ctx, "R", ADD, blocker)
        assert len(out) == 1 and out[0][2] == DELETE

        out = node.activate(ctx, "R", DELETE, blocker)
        assert len(out) == 1 and out[0][2] == ADD

    def test_second_blocker_silent(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        node.activate(ctx, "L", ADD, of((w("a", 1, x=7),)))
        node.activate(ctx, "R", ADD, of((w("b", 2, y=7),)))
        out = node.activate(ctx, "R", ADD, of((w("b", 3, y=7),)))
        assert out == []  # count 1 -> 2: no downstream change

    def test_left_delete_while_blocked_silent(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        left = of((w("a", 1, x=7),))
        node.activate(ctx, "R", ADD, of((w("b", 2, y=7),)))
        assert node.activate(ctx, "L", ADD, left) == []
        assert node.activate(ctx, "L", DELETE, left) == []

    def test_mismatched_blocker_ignored(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        out = node.activate(ctx, "L", ADD, of((w("a", 1, x=7),)))
        assert len(out) == 1
        out = node.activate(ctx, "R", ADD, of((w("b", 2, y=99),)))
        assert out == []


class TestTracingProbes:
    def test_probe_fields_set_when_tracing(self):
        net, memory, _ = build("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        ctx = MatchContext(memory, MatchStats(), strict=True, tracing=True)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        join.activate(ctx, "R", ADD, of((w("b", 1, y=5),)))
        # The bucket it filed under; the recorder hashes its line.
        assert ctx.last_slot == (join.node_id, (5,)) and ctx.last_line == -1
        join.activate(ctx, "L", ADD, of((w("a", 2, x=5),)))
        assert ctx.last_opp_examined == 1
