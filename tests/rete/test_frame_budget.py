"""A two-input activation costs one Python frame per phase — guarded.

The paper's §3.1 coalesces memory nodes into the two-input node so one
token at one node is one procedure call; Table 4-4 measures what
per-token interpretation overhead costs.  Here the unit is the Python
frame: a join activation may enter ``JoinNode.activate``,
``update_memory`` and ``search_opposite`` (3 frames), its one compiled
key function, and the compiled test function once per candidate it
examines; the only other frames are the ``__init__`` of the tokens and
activations it outputs.  A helper re-introduced into that path
(``key_for``, a memory method, a stats recorder, ``Token.extend``)
shows up as a frame this test does not know, and fails a unit test
instead of a benchmark.
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

PACKAGE = str(Path(repro.__file__).parent)

#: Two joins; the second carries a residual (non-equality) test so the
#: test function is a real compiled closure, not ``_always_true`` (and
#: ``<>`` compiles inline, so the closure calls nothing itself).
SOURCE = "(p r (a ^x <v> ^n <n>) (b ^y <v>) (c ^z <v> ^m <> <n>) --> (halt))"

#: Frames of one WM change that are not per-activation work, and the
#: object constructors the activation path may run.
PER_CHANGE = {"match_change", "enter_change", "alpha_pass", "drain",
              "ReteNetwork.alpha_dispatch", "Token.single"}
CONSTRUCTORS = {"Token.__init__", "Activation.__init__"}
TERMINAL = {"TerminalNode.activate"}
PHASES = ("JoinNode.activate", "TwoInputNode.update_memory",
          "JoinNode.search_opposite")


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


def profile_match(matcher, batch):
    """Calls per code object of the package (and of its generated
    closures) while ``batch`` is matched — not of whatever a plugin's
    gc callback happens to run in between."""
    frames = Counter()

    def on_event(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith((PACKAGE, "<rete-codegen")):
            frames[code] += 1

    sys.setprofile(on_event)
    try:
        for sign, wme in batch:
            kernel.match_change(matcher.network, matcher.ctx, sign, wme)
    finally:
        sys.setprofile(None)
    return frames


def test_join_activation_stays_within_its_frame_budget():
    network = ReteNetwork.compile(parse_program(SOURCE))
    matcher = SequentialMatcher(network)
    frames = profile_match(matcher, changes())
    stats = matcher.stats
    joins = stats.activations_by_kind["join"]
    assert joins >= 40 and stats.tokens_emitted >= 10  # not vacuous

    join_nodes = [n for n in network.beta_nodes if isinstance(n, JoinNode)]
    assert len(join_nodes) == 2
    key_fns = {f.__code__ for n in join_nodes for f in (n.left_key_fn, n.right_key_fn)}
    test_fns = {n.tests_fn.__code__ for n in join_nodes}
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

    # One frame per phase, one key function call, one test call per
    # candidate examined ...
    assert sum(by_name[name] for name in PHASES) <= 3 * joins
    assert by_name["JoinNode.activate"] == joins
    assert key_calls == joins
    assert test_calls == stats.opp_examined_left + stats.opp_examined_right
    # ... and nothing else: every other frame is per change, the
    # terminal node's, or the constructor of an output object.
    unknown = set(by_name) - set(PHASES) - PER_CHANGE - CONSTRUCTORS - TERMINAL
    assert unknown == set()
    n_changes = stats.wme_changes
    assert all(by_name[name] == n_changes for name in PER_CHANGE)
    roots = by_name["Activation.__init__"] - stats.tokens_emitted
    assert 0 < roots <= 2 * n_changes
    assert by_name["Token.__init__"] <= n_changes + stats.tokens_emitted
