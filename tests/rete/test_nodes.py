"""Unit tests of one node activation at a time, run by the kernel
(:func:`activate`), including where the §3.2 line and modification
brackets open and close around it (:func:`repro.rete.kernel.execute`)."""

import pytest

from repro.ops5.parser import parse_program
from repro.ops5.wme import WME
from repro.parallel.conjugate import ConjugateMemory
from repro.rete import kernel
from repro.rete.matcher import SequentialMatcher
from repro.rete.memories import MemorySystem
from repro.rete.network import ReteNetwork
from repro.rete.nodes import JoinNode, MatchContext, NotNode
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, of
from repro.rete.trace import TraceRecorder


def build(src: str):
    network = ReteNetwork.compile(parse_program(src))
    memory = MemorySystem("hash")
    ctx = MatchContext(memory, MatchStats(), strict=True)
    return network, memory, ctx


def w(klass, tag, **attrs):
    return WME.make(klass, attrs, tag)


def activate(ctx, node, side, sign, token):
    """One activation of ``node`` through the kernel; its children."""
    children = []
    assert kernel.drain(ctx, [(node, side, sign, token)], children.extend) == 1
    return children


class BracketLog:
    """Line locks that only write down when the brackets open and
    close; ``probe`` is a residual test that writes down each search
    step into the same log."""

    def __init__(self):
        self.events = []

    def enter(self, line, side):
        self.events.append(("enter", line, side))
        return True

    def exit(self, line, side):
        self.events.append(("exit", line, side))

    def enter_modify(self, line):
        self.events.append(("enter_modify", line))

    def exit_modify(self, line):
        self.events.append(("exit_modify", line))

    def probe(self, wmes, w):
        self.events.append("search")
        return True


def bracketed(src, cls):
    """(node, ctx, log) with the log attached as ``ctx.locks`` and as
    the node's residual test."""
    net, _memory, ctx = build(src)
    node = next(n for n in net.beta_nodes if isinstance(n, cls))
    log = ctx.locks = BracketLog()
    node.tests_fn = log.probe
    return node, ctx, log


def execute(ctx, node, side, sign, token):
    """One activation run as a queue task, on its entered line:
    ``(children, line)``."""
    children = []
    assert kernel.execute(ctx, (node, side, sign, token), children.extend, None)
    return children, ctx.memory.line_of(node.node_id, node.key_for(side, token))


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

        out, line = execute(ctx, node, "R", ADD, right)
        assert out == []
        assert log.events == [("enter", line, "R"), ("enter_modify", line),
                              ("exit_modify", line), ("exit", line, "R")]
        del log.events[:]
        out, line = execute(ctx, node, "L", ADD, left)
        assert log.events == [("enter", line, "L"), ("enter_modify", line),
                              ("exit_modify", line), "search", ("exit", line, "L")]

        activate(plain, join, "R", ADD, right)
        expected = activate(plain, join, "L", ADD, left)
        assert [t[1:3] + (t[3][1],) for t in out] == [("L", ADD, (2, 1))]
        assert [t[3] for t in out] == [t[3] for t in expected]

    def test_not_node_holds_the_bracket_throughout(self):
        """A negated node mutates left-entry counts while it searches."""
        node, ctx, log = bracketed(TestNotNodeCounts.SRC, NotNode)
        execute(ctx, node, "L", ADD, of((w("a", 1, x=7),)))
        del log.events[:]
        out, line = execute(ctx, node, "R", ADD, of((w("b", 2, y=7),)))
        assert log.events == [("enter", line, "R"), ("enter_modify", line), "search",
                              ("exit_modify", line), ("exit", line, "R")]
        assert [t[2] for t in out] == [DELETE]

    @pytest.mark.parametrize("cls", [JoinNode, NotNode])
    def test_raise_inside_the_bracket_releases_it(self, cls):
        src = self.SRC if cls is JoinNode else TestNotNodeCounts.SRC
        node, ctx, log = bracketed(src, cls)
        token = of((w("a", 3, x=1),))
        with pytest.raises(RuntimeError, match="delete of unknown token"):
            execute(ctx, node, "L", DELETE, token)
        line = ctx.memory.line_of(node.node_id, node.key_for("L", token))
        assert log.events == [("enter", line, "L"), ("enter_modify", line),
                              ("exit_modify", line), ("exit", line, "L")]

    def test_unknown_delete_message_prints_timetags(self):
        """A strict delete with no stored twin names the token by its
        timetags, never by the WMEs' reprs."""
        net, _m, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        with pytest.raises(RuntimeError) as exc:
            activate(ctx, join, "L", DELETE, of((w("a", 3, x=1), w("b", 7, y=1))))
        assert str(exc.value) == (
            f"delete of unknown token [3 7] at join node {join.node_id}"
        )

    def test_annihilated_add_stops_the_activation(self):
        net, _m, _ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        memory = ConjugateMemory(16)
        ctx = MatchContext(memory, MatchStats(), strict=False)
        activate(ctx, join, "R", ADD, of((w("b", 1, y=1),)))
        tok = of((w("a", 3, x=1),))
        # Early delete parks; the matching add annihilates: neither is
        # stored, neither searches the waiting right token.
        assert activate(ctx, join, "L", DELETE, tok) == []
        assert activate(ctx, join, "L", ADD, tok) == []
        assert memory.total_tokens() == 1
        assert (memory.parked_total, memory.annihilations) == (1, 1)
        assert ctx.stats.opp_count_left == 0

    def test_delete_emits_delete_children(self):
        net, _m, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        right = of((w("b", 1, y=5),))
        left = of((w("a", 2, x=5),))
        activate(ctx, join, "R", ADD, right)
        activate(ctx, join, "L", ADD, left)
        out = activate(ctx, join, "L", DELETE, left)
        assert len(out) == 1
        assert out[0][2] == DELETE

    def test_keys_route_by_equality_values(self):
        net, memory, ctx = build(self.SRC)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        activate(ctx, join, "R", ADD, of((w("b", 1, y=5),)))
        activate(ctx, join, "R", ADD, of((w("b", 2, y=6),)))
        out = activate(ctx, join, "L", ADD, of((w("a", 3, x=5),)))
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
        out = activate(ctx, node, "L", ADD, left)
        assert len(out) == 1 and out[0][2] == ADD

        blocker = of((w("b", 2, y=7),))
        out = activate(ctx, node, "R", ADD, blocker)
        assert len(out) == 1 and out[0][2] == DELETE

        out = activate(ctx, node, "R", DELETE, blocker)
        assert len(out) == 1 and out[0][2] == ADD

    def test_second_blocker_silent(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        activate(ctx, node, "L", ADD, of((w("a", 1, x=7),)))
        activate(ctx, node, "R", ADD, of((w("b", 2, y=7),)))
        out = activate(ctx, node, "R", ADD, of((w("b", 3, y=7),)))
        assert out == []  # count 1 -> 2: no downstream change

    def test_left_delete_while_blocked_silent(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        left = of((w("a", 1, x=7),))
        activate(ctx, node, "R", ADD, of((w("b", 2, y=7),)))
        assert activate(ctx, node, "L", ADD, left) == []
        assert activate(ctx, node, "L", DELETE, left) == []

    def test_mismatched_blocker_ignored(self):
        net, memory, ctx = build(self.SRC)
        node = self._not_node(net)
        out = activate(ctx, node, "L", ADD, of((w("a", 1, x=7),)))
        assert len(out) == 1
        out = activate(ctx, node, "R", ADD, of((w("b", 2, y=99),)))
        assert out == []


class TestTracingProbes:
    def test_probe_fields_set_when_tracing(self):
        """What a recorded activation leaves in its task record: the
        line of the bucket it filed under and the candidates it
        examined."""
        net = ReteNetwork.compile(parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))"))
        recorder = TraceRecorder()
        matcher = SequentialMatcher(net, recorder=recorder)
        join = next(n for n in net.beta_nodes if isinstance(n, JoinNode))
        kernel.match_change(net, matcher.ctx, ADD, w("b", 1, y=5), recorder)
        kernel.match_change(net, matcher.ctx, ADD, w("a", 2, x=5), recorder)
        right, left, _term = recorder.trace.tasks
        line = matcher.memory.line_of(join.node_id, (5,))
        assert (right.node_id, right.side, right.line, right.opp_examined) == (
            join.node_id, "R", line, 0)
        assert (left.side, left.line, left.opp_examined, left.n_children) == ("L", line, 1, 1)
