"""A two-input activation enters no frame of the package, an output
token none — guarded.

The paper's §3.1 coalesces memory nodes into the two-input node so one
token at one node is one procedure call; Table 4-4 measures what
per-token interpretation overhead costs.  Here the unit is the Python
frame, and the call is one iteration of the kernel's loop
(:func:`repro.rete.kernel.drain`): a join, not or terminal activation,
recorded or not, enters nothing of the package except the compiled key
function at a node that *has* equality tests and the compiled test
function — once per candidate — at a node that *has* a residual test.
That test spells an ordering predicate inline, so it calls nothing
itself.  Tasks, tokens,
task records and conflict-set changes are tuples and a not node's left
entry is a list, so scheduling a task, emitting a token, recording it
and storing an entry build no frame.  A helper re-introduced into that
path (a node method, ``key_for``, a memory method, a stats recorder,
a recorder method, a token or entry class, a comparison helper, a
dataclass, a comprehension, a stand-in for an absent test) shows up as
a frame this test does not know, and fails a unit test instead of a
benchmark.
"""

import sys
from collections import Counter
from pathlib import Path

import repro
from repro.obs import events
from repro.ops5.parser import parse_program
from repro.ops5.wme import WME
from repro.rete import kernel
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.rete.nodes import JoinNode, NotNode
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

#: ``propose-match`` in miniature: a cross product whose one test is an
#: ordering, ``<t2> > <t1>``, under a negated CE keyed on both.
PROPOSE = ("(p r (a ^x <v>) (b ^y <t1>) (b ^y { <t2> > <t1> }) "
           "- (d ^lo <t1> ^hi <t2>) --> (halt))")

#: Frames of one WM change: none of them is per-activation work.
PER_CHANGE = {"match_change", "enter_change", "alpha_pass", "drain",
              "ReteNetwork.alpha_dispatch"}


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


def propose_changes():
    """Teams, two played pairs, the control element; then a played pair
    leaves (its left token re-asserts), a team leaves, the control
    element goes (everything retracts) and comes back."""
    wmes = []

    def make(klass, attrs):
        wmes.append(WME.make(klass, attrs, len(wmes) + 1))
        return wmes[-1]

    teams = [make("b", {"y": i}) for i in range(5)]
    played = [make("d", {"lo": 0, "hi": 1}), make("d", {"lo": 1, "hi": 3})]
    control = make("a", {"x": 1})
    out = [(ADD, wme) for wme in teams + played + [control]]
    out += [(DELETE, played[0]), (DELETE, teams[4]), (DELETE, control)]
    return out + [(ADD, make("d", {"lo": 0, "hi": 2})), (ADD, make("a", {"x": 2}))]


def profile_match(source, batch_fn=changes, recorder=None):
    """``(frames by qualname, key calls, test calls, stats, network)``
    of the package (and of its generated closures) while the batch is
    matched — under ``recorder``, if one is given — not of whatever a
    plugin's gc callback happens to run in between."""
    network = ReteNetwork.compile(parse_program(source))
    matcher = SequentialMatcher(network, recorder=recorder)
    batch = batch_fn()
    frames = Counter()

    def on_event(frame, event, _arg):
        # "<string>": what a dataclass's generated methods are compiled as.
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(
            (PACKAGE, "<rete-codegen", "<string>")
        ):
            frames[code] += 1

    sys.setprofile(on_event)
    try:
        for sign, wme in batch:
            kernel.match_change(network, matcher.ctx, sign, wme, recorder)
    finally:
        sys.setprofile(None)

    nodes = network.two_input_nodes()
    key_fns = {f.__code__ for n in nodes for f in (n.left_key_fn, n.right_key_fn) if f}
    test_fns = {n.tests_fn.__code__ for n in nodes if n.tests_fn}
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
    """Nothing but the frames of each WM change: an activation and an
    output token cost no frame."""
    kinds = stats.activations_by_kind
    two_input = kinds["join"] + kinds.get("not", 0)
    assert two_input >= 40 and stats.tokens_emitted >= 10  # not vacuous
    assert kinds["term"] > 0
    assert set(by_name) == PER_CHANGE
    assert all(by_name[name] == stats.wme_changes for name in PER_CHANGE)


def examined_by_node(network, batch):
    """Opposite-memory candidates examined per node, read off a
    recorded twin of the same run."""
    recorder = TraceRecorder()
    twin = SequentialMatcher(network, recorder=recorder)
    for sign, wme in batch:
        kernel.match_change(network, twin.ctx, sign, wme, recorder)
    examined = Counter()
    for task in recorder.trace.tasks:
        examined[task.node_id] += task.opp_examined
    return examined


def test_join_activation_stays_within_its_frame_budget():
    by_name, key_calls, test_calls, stats, network = profile_match(KEYED)
    assert_only_budgeted_frames(by_name, stats)
    first, second = (n for n in network.beta_nodes if isinstance(n, JoinNode))
    assert first.tests_fn is None and second.tests_fn is not None
    # One key call per activation (both joins have equality tests), one
    # test call per candidate the join with the residual test examines.
    examined = examined_by_node(network, changes())
    assert examined[first.node_id] > 0 and examined[second.node_id] > 0
    assert key_calls == stats.activations_by_kind["join"]
    assert test_calls == examined[second.node_id]


def test_absent_keys_and_tests_cost_no_frame():
    by_name, key_calls, test_calls, stats, network = profile_match(CROSS)
    assert_only_budgeted_frames(by_name, stats)
    for node in network.two_input_nodes():
        assert (node.tests_fn, node.left_key_fn, node.right_key_fn) == (None,) * 3
    assert stats.opp_examined_left + stats.opp_examined_right > 0
    assert key_calls == test_calls == 0


def test_ordering_join_and_not_node_cost_no_frame_per_token():
    """``propose-match``'s shape: the ordering test runs once per
    candidate and calls nothing, and neither the tokens it emits nor
    the not node's counted entries build a frame."""
    by_name, key_calls, test_calls, stats, network = profile_match(PROPOSE, propose_changes)
    assert_only_budgeted_frames(by_name, stats)
    cross, ordered = (n for n in network.beta_nodes if isinstance(n, JoinNode))
    (negated,) = (n for n in network.beta_nodes if isinstance(n, NotNode))
    assert cross.tests_fn is None and negated.tests_fn is None
    assert ordered.tests_fn is not None and ordered.left_key_fn is None
    assert stats.activations_by_kind["not"] > 0 and stats.cs_changes > 0
    examined = examined_by_node(network, propose_changes())
    assert test_calls == examined[ordered.node_id] > 0
    # The not node alone is keyed: one key call per activation of it.
    assert key_calls == stats.activations_by_kind["not"]


def test_recorded_activation_stays_within_its_frame_budget():
    """Under a ``TraceRecorder`` a task costs no frame either: the
    kernel appends its record (a tuple, built with no ``__init__``)
    inline.  A bucket's line is hashed once per distinct bucket of the
    recording, and a key once per distinct key — never once per task,
    and ``uses_line`` not at all."""
    recorder = TraceRecorder()
    by_name, key_calls, _test_calls, stats, _network = profile_match(KEYED, recorder=recorder)
    tasks = recorder.trace.tasks
    kinds = stats.activations_by_kind
    two_input = kinds["join"] + kinds.get("not", 0)
    assert len(tasks) == stats.node_activations
    assert key_calls == kinds["join"]
    # Everything else is per WM change or cycle (its alpha pass, its
    # root tasks, its ChangeRecord / CycleRecord), or per bucket.
    per_bucket = {"TraceRecorder.line_of", "line_hash_from", "key_hash"}
    per_change = stats.wme_changes + len(recorder.trace.cycles)
    rest = {name: n for name, n in by_name.items() if name not in per_bucket}
    assert all(n <= per_change for n in rest.values()), rest
    assert "TwoInputNode.uses_line" not in by_name and "MemorySystem.line_of" not in by_name
    buckets = recorder.lines
    assert 0 < len(buckets) < two_input                     # not vacuous
    assert by_name["TraceRecorder.line_of"] == by_name["line_hash_from"] == len(buckets)
    assert by_name["key_hash"] == len({key for _node, key in buckets})
    assert [t.line for t in tasks if t.kind == "term"] == [-1] * kinds["term"]


def test_bus_on_match_hashes_no_line():
    """With the obs bus on and no recorder the kernel still runs its
    tracing arm, but nothing there reads a line: a bus-on sequential
    match enters ``MemorySystem.line_of`` zero times."""
    events.reset()
    events.enable()
    try:
        by_name, _key_calls, _test_calls, stats, _network = profile_match(KEYED)
    finally:
        events.disable()
        events.reset()
    assert by_name["node_hit"] == stats.node_activations > 0    # the bus was on
    assert not {"MemorySystem.line_of", "key_hash", "line_hash_from"} & set(by_name)
