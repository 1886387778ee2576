"""The activation kernel is the only match loop — checked, not asserted.

Two guards:

* **Structure.**  An ``ast`` scan of ``src/repro`` proves that node
  activations, the alpha dispatch and the ``node_hit`` probe are called
  from :mod:`repro.rete.kernel` alone (corgi's separate engine is the
  named exception), and that the phase split a two-input activation
  used to be — ``class Activation``, ``update_memory``,
  ``search_opposite`` — is defined nowhere.  A fourth hand-rolled loop
  in some engine, or a second copy of the activation frame, fails here.
* **Instrumented once.**  With the bus on, the threaded and mp
  engines' per-node profiles equal their own ``MatchStats`` in total
  and per kind, and cover the node set the sequential matcher
  activates — the probe sits in the kernel, so no engine can under- or
  double-report.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.engines import mp_supported
from repro.obs import events
from repro.ops5.interpreter import Interpreter
from repro.programs import blocks, tourney

SRC = Path(repro.__file__).parent

KERNEL = "rete/kernel.py"

#: method name -> files (relative to src/repro; a trailing "/" means a
#: package) allowed to call it.
ALLOWED = {
    "activate": {KERNEL},
    "alpha_dispatch": {KERNEL, "corgi/"},
    "node_hit": {KERNEL, "corgi/"},
}


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node


def _is_guarded(call: ast.Call) -> bool:
    name = call.func.attr
    if name not in ALLOWED:
        return False
    if name == "activate":
        # `node.activate(ctx, side, sign, token)` — not the unrelated
        # zero/one-arg activate() methods of the obs context and the
        # schedck harness.
        return len(call.args) == 4
    return True


def _permitted(rel: str, name: str) -> bool:
    return any(
        rel.startswith(where) if where.endswith("/") else rel == where
        for where in ALLOWED[name]
    )


class TestOneKernel:
    def test_match_primitives_are_called_only_from_the_kernel(self):
        offenders = []
        seen = set()
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for call in _calls(ast.parse(path.read_text())):
                if not _is_guarded(call):
                    continue
                name = call.func.attr
                seen.add((rel, name))
                if not _permitted(rel, name):
                    offenders.append(f"{rel}:{call.lineno} calls .{name}(")
        assert offenders == []
        # Non-vacuity: the scan does see the kernel's own call sites.
        assert {(KERNEL, name) for name in ALLOWED} <= seen

    def test_the_phase_split_is_defined_nowhere(self):
        """One frame, one copy of the text: the task class and the two
        phases were deleted, not kept beside ``TwoInputNode.activate``,
        and no node kind overrides that one frame."""
        gone = {"Activation", "update_memory", "search_opposite"}
        defined = set()
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in gone:
                    defined.add(f"{path.relative_to(SRC).as_posix()}:{node.name}")
        assert defined == set()
        from repro.rete.nodes import JoinNode, NotNode, TwoInputNode

        assert JoinNode.activate is NotNode.activate is TwoInputNode.activate


PROGRAMS = {
    "blocks": blocks.source(),
    "tourney": tourney.source(n_teams=4, n_rounds=3),
}

ENGINES = [
    pytest.param("threaded", {"n_workers": 3}, id="threaded"),
    pytest.param(
        "mp", {"n_workers": 2}, id="mp",
        marks=pytest.mark.skipif(
            not mp_supported(), reason="mp engine needs the 'fork' start method"
        ),
    ),
]


def run_traced(source, engine, **opts):
    """(node profile, the engine's MatchStats, node id -> network kind)
    of one bus-on run."""
    events.reset()
    events.enable()
    try:
        interp = Interpreter(source, engine=engine, engine_opts=opts)
        try:
            interp.run(max_cycles=2000)
            snap = events.snapshot()
            kinds = {n.node_id: n.kind for n in interp.network.beta_nodes}
            return snap.nodes, interp.matcher.stats, kinds
        finally:
            interp.close()
    finally:
        events.disable()
        events.reset()


class TestInstrumentedOnce:
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("engine, opts", ENGINES)
    def test_profile_is_exactly_what_the_engine_counted(
        self, engine, opts, program
    ):
        """Every activation the engine's own MatchStats counted shows up
        in the node profile once, under the right node kind — in total
        and per kind."""
        nodes, stats, kinds = run_traced(PROGRAMS[program], engine, **opts)
        assert stats.node_activations > 0
        assert sum(agg[1] for agg in nodes.values()) == stats.node_activations
        by_kind = {}
        for node_id, agg in nodes.items():
            assert agg[0] == kinds[node_id]
            by_kind[agg[0]] = by_kind.get(agg[0], 0) + agg[1]
        assert by_kind == stats.activations_by_kind

    def test_threaded_profile_covers_the_sequential_node_set(self):
        """The threaded twin of the mp check in ``tests/obs/test_fabric.py``:
        on tourney a parallel run activates exactly the nodes the
        sequential matcher does, each at least as often (conjugate
        pairs only add work).  Blocks is left out on purpose: its RHS
        batches mix removes and makes, and the parallel engines'
        intra-batch reordering legitimately changes which transient
        tokens exist — and so which nodes they reach."""
        source = PROGRAMS["tourney"]
        seq_nodes, seq_stats, _kinds = run_traced(source, "sequential")
        assert sum(agg[1] for agg in seq_nodes.values()) == (
            seq_stats.node_activations
        )
        nodes, _stats, _kinds = run_traced(source, "threaded", n_workers=3)
        assert set(nodes) == set(seq_nodes)
        for node_id, agg in nodes.items():
            assert agg[0] == seq_nodes[node_id][0]
            assert agg[1] >= seq_nodes[node_id][1]
