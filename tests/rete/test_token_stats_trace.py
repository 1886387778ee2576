"""Unit tests for tokens, match statistics, and trace recording."""

import pytest

from repro.ops5.wme import WME
from repro.rete.stats import MatchStats
from repro.rete.token import ADD, DELETE, EMPTY, fmt, of
from repro.rete.trace import MatchTrace, TaskRecord, TraceRecorder


def w(tag: int) -> WME:
    return WME.make("c", {"i": tag}, tag)


def joined(left: WME, right: WME):
    """The token a join node builds, inline, for ``left`` then ``right``."""
    from repro.ops5.parser import parse_program
    from repro.ops5.wme import WMEChange
    from repro.rete.matcher import SequentialMatcher
    from repro.rete.network import ReteNetwork

    source = f"(p r (c ^i {left.timetag}) (c ^i {right.timetag}) --> (halt))"
    matcher = SequentialMatcher(ReteNetwork.compile(parse_program(source)))
    matcher.process_changes([WMEChange(ADD, left)])
    ((_production, token, _sign),) = matcher.process_changes([WMEChange(ADD, right)])
    return token


class TestToken:
    """A token is the plain tuple ``(wmes, key)``."""

    def test_of_builds_key_from_timetags(self):
        t = of((w(3), w(7)))
        assert t[1] == (3, 7)
        assert len(t[0]) == 2

    def test_single(self):
        """A WM change enters the network as a one-WME token."""
        from repro.ops5.parser import parse_program
        from repro.rete import kernel
        from repro.rete.network import ReteNetwork
        from repro.rete.stats import MatchStats

        network = ReteNetwork.compile(parse_program("(p r (c) (d) --> (halt))"))
        roots = []
        kernel.enter_change(network, MatchStats(), ADD, w(9), roots.extend)
        ((_node, _side, _sign, t),) = roots
        assert t[1] == (9,)
        assert t == ((w(9),), (9,))

    def test_extend(self):
        t = joined(w(1), w(2))
        assert t[1] == (1, 2)
        assert t[0][1].timetag == 2

    def test_empty(self):
        assert EMPTY[1] == ()
        assert len(EMPTY[0]) == 0

    def test_equality_by_content(self):
        assert of((w(1),)) == of((w(1),))

    def test_signs(self):
        assert ADD == 1 and DELETE == -1

    def test_str(self):
        assert fmt(of((w(1), w(2)))) == "[1 2]"

    def test_equality_and_hash_are_by_value(self):
        """The conflict set and ``Instantiation`` key on tokens."""
        a, b = joined(w(1), w(2)), of((w(1), w(2)))
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != of((w(1), w(3)))
        assert type(a) is tuple and a == (a[0], a[1])

    def test_pickle_round_trip(self):
        """Tokens cross the mp engine's pipes."""
        import pickle

        t = of((w(4), w(5)))
        back = pickle.loads(pickle.dumps(t))
        assert back == t and back[1] == (4, 5)
        assert not hasattr(back, "__dict__")


class TestActivation:
    def test_parent_defaults_to_no_parent_and_is_assignable(self):
        """A task is ``(node, side, sign, token)``; the kernel appends
        the spawning task's tid only under a TraceRecorder."""
        from repro.ops5.parser import parse_program
        from repro.ops5.wme import WMEChange
        from repro.rete import kernel
        from repro.rete.matcher import SequentialMatcher
        from repro.rete.network import ReteNetwork

        network = ReteNetwork.compile(parse_program("(p r (a) (b) --> (halt))"))
        for recorder in (None, TraceRecorder()):
            matcher = SequentialMatcher(network, recorder=recorder)
            matcher.process_changes([WMEChange(ADD, WME.make("a", {}, 1))])
            if recorder is not None:
                recorder.begin_change(n_const_tests=0, n_alpha_hits=0)
            stack, routed = [], []
            kernel.enter_change(network, matcher.stats, ADD, WME.make("b", {}, 2), stack.extend)
            assert [len(task) for task in stack] == [4]
            if recorder is not None:
                stack = [root + (-1,) for root in stack]
            kernel.drain(matcher.ctx, stack, routed.extend, recorder)
            (child,) = routed
            assert child[0].kind == "term" and child[3][1] == (1, 2)
            if recorder is None:
                assert len(child) == 4
            else:
                parent = recorder.trace.tasks[-1]
                assert parent.parent == -1 and child[4] == parent.tid


class TestMatchStats:
    def test_record_activation_by_kind(self):
        """Every beta node bumps the total, not/term nodes their own
        counter too; joins are the rest, and unseen kinds are absent."""
        s = MatchStats()
        s.node_activations += 3
        s.term_activations += 1
        assert s.node_activations == 3
        assert s.activations_by_kind == {"join": 2, "term": 1}

    def test_opposite_means(self):
        s = MatchStats(
            opp_examined_left=12, opp_count_left=2,
            opp_examined_right=2, opp_count_right=1,
        )
        assert s.mean_opp_left == 6.0
        assert s.mean_opp_right == 2.0

    def test_zero_examined_ignored(self):
        """The paper counts only activations that find something to
        examine: a probe of an empty bucket — here with a non-empty
        opposite *memory* — stays out of the Table 4-2 average."""
        from repro.ops5.parser import parse_program
        from repro.rete.matcher import SequentialMatcher
        from repro.rete.network import ReteNetwork
        from repro.ops5.wme import WMEChange

        network = ReteNetwork.compile(
            parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        )
        matcher = SequentialMatcher(network)
        matcher.process_changes([
            WMEChange(1, WME.make("b", {"y": 1}, 1)),
            WMEChange(1, WME.make("a", {"x": 2}, 2)),
        ])
        s = matcher.stats
        assert s.node_activations == 2
        assert (s.opp_count_left, s.opp_count_right) == (0, 0)
        assert s.mean_opp_left == 0.0

    def test_same_delete_means(self):
        s = MatchStats(same_del_examined_right=10, same_del_count_right=1)
        assert s.mean_same_del_right == 10.0
        assert s.mean_same_del_left == 0.0

    def test_merge_is_the_fieldwise_sum(self):
        """Every dataclass field takes part, so a counter added later
        cannot be dropped from the parallel engines' roll-up."""
        from dataclasses import fields

        def block(base):
            stats = MatchStats()
            for i, f in enumerate(fields(MatchStats)):
                setattr(stats, f.name, base + i)
            return stats

        a, b = block(100), block(1000)
        merged = MatchStats().merge(a).merge(b)
        for i, f in enumerate(fields(MatchStats)):
            assert getattr(merged, f.name) == 1100 + 2 * i, f.name
        # The per-kind view follows from the merged counters.
        a, b = MatchStats(node_activations=4, term_activations=1), MatchStats(
            node_activations=6, not_activations=2
        )
        assert a.merge(b).activations_by_kind == {"join": 7, "not": 2, "term": 1}
        # The operand is left alone.
        assert b.activations_by_kind == {"join": 4, "not": 2}

    def test_summary_keys(self):
        s = MatchStats()
        summary = s.summary()
        assert {"wme_changes", "node_activations", "mean_opp_left"} <= set(summary)


def recorded_pair(production="r1"):
    """A recorder that saw one cycle of two changes at one join: ``c 1``
    enters on the left (task 0), ``c 2`` on the right (task 1) and
    joins it, and the token reaches the terminal (task 2)."""
    from repro.ops5.parser import parse_program
    from repro.ops5.wme import WMEChange
    from repro.rete.matcher import SequentialMatcher
    from repro.rete.network import ReteNetwork

    rec = TraceRecorder()
    network = ReteNetwork.compile(parse_program("(p r (c ^i 1) (c ^i 2) --> (halt))"))
    matcher = SequentialMatcher(network, recorder=rec)
    rec.begin_cycle(production, n_rhs_actions=3)
    matcher.process_changes([WMEChange(ADD, w(1)), WMEChange(ADD, w(2))])
    rec.end_cycle(cs_deltas=1)
    return rec


class TestTraceRecorder:
    def test_cycle_and_change_structure(self):
        trace = recorded_pair().trace
        assert trace.n_tasks == 3
        assert trace.n_changes == 2
        cyc = trace.cycles[0]
        assert cyc.production == "r1"
        assert cyc.cs_deltas == 1
        assert [c.first_level for c in cyc.changes] == [[0], [1]]
        assert [t.parent for t in trace.tasks] == [-1, -1, 1]

    def test_children_index(self):
        children = recorded_pair().trace.children_index()
        assert children == [[], [2], []]

    def test_startup_changes_get_synthetic_cycle(self):
        rec = TraceRecorder()
        rec.begin_change(1, 0)
        assert rec.trace.cycles[0].production == "<startup>"

    def test_summary(self):
        s = recorded_pair().trace.summary()
        assert s["tasks"] == 3
        assert s["by_kind"] == {"join": 2, "term": 1}
