"""The codegen budget and the no-cache rule.

The paper's compiler shares structurally identical constant-test nodes
and emits each piece of match code once (§2.2, Figure 2-2).  Ours shared
the nodes but called builtin ``compile()`` once per generated closure:
4 307 calls for a weaver network whose sources are 72 distinct texts.
Since PR 19 ``CompiledEvaluator`` compiles each distinct text once per
network.  These tests hold it there by wrapping ``builtins.compile`` —
no counter in ``src/`` — and hold the *network* to the parent's
(``c693114``) node ids, wiring and ownership, so the saving cannot have
come from building something else.

They also guard the rule that made the saving measurable: no cache may
outlive the call that filled it.  ``bench/`` samples set-up several
times in one process; a memo that survived from one ``parse_program`` /
``ReteNetwork.compile`` call to the next would turn samples 2…n into
hits and measure a different program from a fresh ``repro run``.
"""

import builtins
import hashlib

import pytest

from repro.ops5.parser import parse_program
from repro.programs import rubik, weaver
from repro.rete.network import ReteNetwork

SOURCES = {
    "weaver-8x4": lambda: weaver.source(grid=8, n_nets=4),
    "rubik-16": lambda: rubik.source(n_moves=16, seed=1),
}

#: ``node_counts()``, the size of ``node_owner`` and the sha256 of
#: :func:`shape`, taken at ``c693114`` before the evaluator or
#: ``_alpha_chain`` was touched.
PARENT_SHAPE = {
    "weaver-8x4": (
        {"constant_test": 96, "alpha_terminal": 79, "join": 1288, "not": 196, "terminal": 637},
        2121,
        "536d818ec461aec4c6de7871fab072c5c516c51407da3949560887087b2a5487",
    ),
    "rubik-16": (
        {"constant_test": 109, "alpha_terminal": 105, "join": 482, "not": 45, "terminal": 70},
        597,
        "3f53cb37b4c5c0c38112ee66b7c07ef3d8559f015bea395fee34b34fc52638ce",
    ),
}


@pytest.fixture(scope="module", params=sorted(SOURCES))
def program(request):
    return request.param, parse_program(SOURCES[request.param]())


@pytest.fixture
def compile_calls(monkeypatch):
    """Every source handed to builtin ``compile`` while the fixture lives."""
    sources = []
    real = builtins.compile

    def counting(source, *args, **kwargs):
        sources.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return sources


def _desc(desc: tuple) -> str:
    # A disjunction's frozenset prints in hash order; sort it.
    return repr(tuple(sorted(d) if isinstance(d, frozenset) else d for d in desc))


def shape(net: ReteNetwork) -> str:
    """Every node id with its kind, wiring and owner, as one digest."""
    lines = [
        f"c {n.node_id} {_desc(n.desc)} {[c.node_id for c in n.children]} "
        f"{[t.alpha_id for t in n.terminals]}"
        for n in net.constant_nodes
    ]
    lines += [
        f"a {t.alpha_id} {[(n.node_id, side) for n, side in t.successors]}"
        for t in net.alpha_terminals
    ]
    lines += [
        f"b {n.node_id} {type(n).__name__} {net.node_owner[n.node_id]} "
        f"{[c.node_id for c in getattr(n, 'children', [])]}"
        for n in net.beta_nodes
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def node_functions(net: ReteNetwork) -> list:
    fns = [n.test for n in net.constant_nodes]
    for n in net.two_input_nodes():
        fns += [n.tests_fn, n.all_tests_fn, n.left_key_fn, n.right_key_fn]
    return fns


def test_each_distinct_test_is_compiled_once(program, compile_calls):
    _, prog = program
    net = ReteNetwork.compile(prog)
    assert len(compile_calls) == len(set(compile_calls)) <= 100
    # ... and the nodes hold exactly those functions (plus ``None`` for
    # "no tests" / "no key"), however many nodes.
    fns = node_functions(net)
    assert len(fns) > 10 * len(compile_calls)
    distinct = {id(fn) for fn in fns if fn is not None}
    assert len(distinct) == len(compile_calls)


def test_the_network_is_the_parents(program):
    name, prog = program
    net = ReteNetwork.compile(prog)
    counts, owners, digest = PARENT_SHAPE[name]
    assert net.node_counts() == counts
    assert len(net.node_owner) == owners
    assert shape(net) == digest


def test_equal_descriptors_share_one_function():
    net = ReteNetwork.compile(parse_program(
        """
        (p one (a ^x <v> ^kind k) (b ^y <v> ^z > <v>) --> (halt))
        (p two (c ^x <v> ^kind k) (d ^y <v> ^z > <v>) --> (halt))
        (p odd (a ^x <v>) (b ^y <> <v>) --> (halt))
        """
    ))
    one, two, odd = net.two_input_nodes()
    assert one.tests == two.tests != odd.tests
    for attr in ("tests_fn", "all_tests_fn", "left_key_fn", "right_key_fn"):
        assert getattr(one, attr) is getattr(two, attr)
    assert one.all_tests_fn is not odd.all_tests_fn
    # ^kind k under class a and under class c: two nodes, one test.
    kinds = [n for n in net.constant_nodes if n.desc == ("const", "kind", "=", "k")]
    assert len(kinds) == 2 and kinds[0].test is kinds[1].test


def test_rendered_text_keeps_1_and_1_0_apart():
    """``1 == 1.0 == True`` and they hash alike, so a memo keyed on the
    descriptor would hand ``^x 1.0`` the function compiled for ``^x 1``;
    the rendered text is the key, and it differs."""
    net = ReteNetwork.compile(parse_program(
        "(p i (a ^x 1) --> (halt)) (p f (b ^x 1.0) --> (halt))"
    ))
    by_int, by_float = (n.test for n in net.constant_nodes)
    assert by_int is not by_float


def test_no_cache_outlives_the_call_that_filled_it(program, compile_calls):
    name, prog = program
    first = ReteNetwork.compile(prog)
    n_first = len(compile_calls)
    second = ReteNetwork.compile(prog)
    assert len(compile_calls) == 2 * n_first > 0
    assert all(a.test is not b.test for a, b in zip(first.constant_nodes, second.constant_nodes))
    source = SOURCES[name]()
    again = parse_program(source)
    assert again is not prog and again is not parse_program(source)
