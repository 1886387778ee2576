"""A two-input activation costs one Python frame — guarded.

The paper's §3.1 coalesces memory nodes into the two-input node so one
token at one node is one procedure call; Table 4-4 measures what
per-token interpretation overhead costs.  Here the unit is the Python
frame: a join activation enters ``TwoInputNode.activate`` and nothing
else of the package, except the compiled key function at a node that
*has* equality tests, the compiled test function — once per candidate —
at a node that *has* a residual test, and ``Token.__init__`` once per
output token.  Tasks are tuples, so scheduling one builds no frame.  A
helper re-introduced into that path (``key_for``, a memory method, a
stats recorder, ``Token.extend``, a task class, a stand-in for an
absent test) shows up as a frame this test does not know, and fails a
unit test instead of a benchmark.
"""

import sys
from collections import Counter
from pathlib import Path

import repro
from repro.ops5.parser import parse_program
from repro.ops5.wme import WME
from repro.rete import kernel
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.rete.nodes import JoinNode
from repro.rete.token import ADD, DELETE
from repro.rete.trace import TraceRecorder

PACKAGE = str(Path(repro.__file__).parent)

#: Two joins, both keyed on ``<v>``; only the second carries a residual
#: (non-equality) test (``<>`` compiles inline, so the closure calls
#: nothing itself).
KEYED = "(p r (a ^x <v> ^n <n>) (b ^y <v>) (c ^z <v> ^m <> <n>) --> (halt))"
#: The same chain with no variable shared: cross products, so neither
#: join has a key or a test to call.
CROSS = "(p r (a ^x <v> ^n <n>) (b ^y <u>) (c ^z <t> ^m <m>) --> (halt))"

#: Frames of one WM change that are not per-activation work.
PER_CHANGE = {"match_change", "enter_change", "alpha_pass", "drain",
              "ReteNetwork.alpha_dispatch", "Token.single"}
ACTIVATE = "TwoInputNode.activate"
TERMINAL = "TerminalNode.activate"


def changes():
    """Adds that join at both levels, non-matching traffic, deletes."""
    tag = 0
    out = []
    for v in range(4):
        for klass, attrs in (
            ("b", {"y": v}), ("c", {"z": v, "m": 5}), ("c", {"z": v, "m": 0}),
            ("a", {"x": v, "n": 1}), ("b", {"y": v}),
        ):
            tag += 1
            out.append((ADD, WME.make(klass, attrs, tag)))
    return out + [(DELETE, wme) for _sign, wme in out[::3]]


def profile_match(source):
    """``(frames by qualname, key calls, test calls, stats, network)``
    of the package (and of its generated closures) while the batch is
    matched — not of whatever a plugin's gc callback happens to run in
    between."""
    network = ReteNetwork.compile(parse_program(source))
    matcher = SequentialMatcher(network)
    batch = changes()
    frames = Counter()

    def on_event(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith((PACKAGE, "<rete-codegen")):
            frames[code] += 1

    sys.setprofile(on_event)
    try:
        for sign, wme in batch:
            kernel.match_change(network, matcher.ctx, sign, wme)
    finally:
        sys.setprofile(None)

    joins = [n for n in network.beta_nodes if isinstance(n, JoinNode)]
    key_fns = {f.__code__ for n in joins for f in (n.left_key_fn, n.right_key_fn) if f}
    test_fns = {n.tests_fn.__code__ for n in joins if n.tests_fn}
    alpha_tests = {n.test.__code__ for n in network.constant_nodes}
    by_name = Counter()
    key_calls = test_calls = 0
    for code, n in frames.items():
        if code in key_fns:
            key_calls += n
        elif code in test_fns:
            test_calls += n
        elif code not in alpha_tests:
            by_name[code.co_qualname] += n
    return by_name, key_calls, test_calls, matcher.stats, network


def assert_only_budgeted_frames(by_name, stats):
    """One ``activate`` per two-input activation, and nothing else that
    is not per change, the terminal node's, or an output token's
    constructor."""
    joins = stats.activations_by_kind["join"]
    assert joins >= 40 and stats.tokens_emitted >= 10  # not vacuous
    assert by_name[ACTIVATE] == joins
    assert set(by_name) - PER_CHANGE == {ACTIVATE, TERMINAL, "Token.__init__"}
    assert all(by_name[name] == stats.wme_changes for name in PER_CHANGE)
    assert by_name[TERMINAL] == stats.activations_by_kind["term"]
    assert by_name["Token.__init__"] <= stats.wme_changes + stats.tokens_emitted


def test_join_activation_stays_within_its_frame_budget():
    by_name, key_calls, test_calls, stats, network = profile_match(KEYED)
    assert_only_budgeted_frames(by_name, stats)
    first, second = (n for n in network.beta_nodes if isinstance(n, JoinNode))
    assert first.tests_fn is None and second.tests_fn is not None
    # One key call per activation (both joins have equality tests), one
    # test call per candidate the join with the residual test examines —
    # read off a recorded twin of the same run.
    recorder = TraceRecorder()
    twin = SequentialMatcher(network, recorder=recorder)
    for sign, wme in changes():
        kernel.match_change(network, twin.ctx, sign, wme, recorder)
    examined = {first.node_id: 0, second.node_id: 0}
    for task in recorder.trace.tasks:
        if task.node_id in examined:
            examined[task.node_id] += task.opp_examined
    assert min(examined.values()) > 0
    assert key_calls == stats.activations_by_kind["join"]
    assert test_calls == examined[second.node_id]


def test_absent_keys_and_tests_cost_no_frame():
    by_name, key_calls, test_calls, stats, network = profile_match(CROSS)
    assert_only_budgeted_frames(by_name, stats)
    for node in network.two_input_nodes():
        assert (node.tests_fn, node.left_key_fn, node.right_key_fn) == (None,) * 3
    assert stats.opp_examined_left + stats.opp_examined_right > 0
    assert key_calls == test_calls == 0
