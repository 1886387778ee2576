"""The codegen budget and the no-cache rule.

The paper's compiler shares structurally identical constant-test nodes
and emits each piece of match code once (§2.2, Figure 2-2).  Ours shared
the nodes but called builtin ``compile()`` once per generated closure:
4 307 calls for a weaver network whose sources are 72 distinct texts.
Since PR 19 ``CompiledEvaluator`` compiles each distinct text once per
network, and a WME class's whole constant-test tree is one generated
function, compiled once per class (28 join/key texts and 7 classes on
weaver 8×4).  These tests hold it there by wrapping ``builtins.compile`` —
no counter in ``src/`` — and hold the *network* to the parent's
(``c693114``) node ids, wiring and ownership, so the saving cannot have
come from building something else.

The front end shares the same way: one ``parse_program`` call scans each
distinct source line once and builds each distinct condition element
and each distinct action once.  The counts are taken by wrapping the
lexer's line scanner and the parser's action parser, again with no
counter in ``src/``.

Set-up runs with the cyclic collector paused (``repro.ops5.collector``;
``tests/rete/test_setup_garbage.py`` holds set-up to making no cyclic
garbage), and hands the caller's ``gc`` state back unchanged, on return
and on raise.

They also guard the rule that made the saving measurable: no cache may
outlive the call that filled it.  ``bench/`` samples set-up several
times in one process; a memo that survived from one ``parse_program`` /
``ReteNetwork.compile`` call to the next would turn samples 2…n into
hits and measure a different program from a fresh ``repro run``.
"""

import builtins
import gc
import hashlib
import weakref

import pytest

from repro.corgi.plan import compile_plans
from repro.ops5 import lexer, parser, rhs
from repro.ops5.collector import collector_paused
from repro.ops5.errors import CompileError, ParseError, RuntimeOps5Error
from repro.ops5.parser import parse_program
from repro.ops5.rhs import CompiledRHS
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
    fns = []
    for n in net.two_input_nodes():
        fns += [n.tests_fn, n.all_tests_fn, n.left_key_fn, n.right_key_fn]
    return fns


def classes(prog) -> set:
    return {ce.klass for p in prog.productions for ce in p.ces}


def test_each_distinct_test_is_compiled_once(program, compile_calls):
    """One ``compile()`` per distinct join or key text, and one per WME
    class: a class's whole constant-test tree is one function."""
    _, prog = program
    net = ReteNetwork.compile(prog)
    assert len(compile_calls) == len(set(compile_calls)) <= 100
    # ... and the two-input nodes hold exactly the join and key
    # functions (plus ``None`` for "no tests" / "no key"), however many
    # nodes; the rest are the class dispatch functions.
    fns = node_functions(net)
    distinct = {id(fn) for fn in fns if fn is not None}
    assert len(fns) > 10 * len(distinct)
    dispatch = list(net._dispatch.values())
    assert sorted(net._dispatch) == sorted(classes(prog))
    assert len({id(fn) for fn in dispatch}) == len(dispatch) > 1
    assert len(distinct) + len(dispatch) == len(compile_calls)


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
    # ^kind k under class a and under class c: two nodes, each tested
    # by its own class's dispatch function.
    kinds = [n for n in net.constant_nodes if n.desc == ("const", "kind", "=", "k")]
    assert len(kinds) == 2


def test_rendered_text_keeps_1_and_1_0_apart(compile_calls):
    """``1 == 1.0 == True`` and they hash alike, so a memo keyed on the
    descriptor would hand ``^x 1.0`` the text rendered for ``^x 1``;
    each class function renders its own constant."""
    ReteNetwork.compile(parse_program(
        "(p i (a ^x 1) --> (halt)) (p f (b ^x 1.0) --> (halt))"
    ))
    by_int, by_float = compile_calls
    assert "== 1)" in by_int and "1.0" not in by_int
    assert "== 1.0)" in by_float


def test_no_cache_outlives_the_call_that_filled_it(program, compile_calls):
    name, prog = program
    first = ReteNetwork.compile(prog)
    n_first = len(compile_calls)
    second = ReteNetwork.compile(prog)
    assert len(compile_calls) == 2 * n_first > 0
    assert first._dispatch.keys() == second._dispatch.keys()
    assert all(first._dispatch[k] is not second._dispatch[k] for k in first._dispatch)
    # A generated function and its globals form no cycle: the last
    # reference to the network frees them, with no collection.
    gone = [weakref.ref(fn) for fn in second._dispatch.values()]
    del second
    assert [ref() for ref in gone] == [None] * len(gone)
    source = SOURCES[name]()
    again = parse_program(source)
    assert again is not prog and again is not parse_program(source)


def _ces(prog) -> list:
    return [ce for p in prog.productions for ce in p.ces]


def test_one_parse_scans_each_distinct_line_and_builds_each_distinct_ce_once(monkeypatch):
    scanned = []
    real = lexer._scan_line

    def counting(text):
        scanned.append(text)
        return real(text)

    monkeypatch.setattr(lexer, "_scan_line", counting)
    source = SOURCES["weaver-8x4"]()
    ces = _ces(parse_program(source))
    assert len(source.split("\n")) == 5441
    assert len(scanned) == len(set(scanned)) == 933
    assert len(ces) == 2121
    assert len({id(ce) for ce in ces}) == 99


def test_two_parses_share_no_condition_element():
    source = SOURCES["weaver-8x4"]()
    first, second = (_ces(parse_program(source)) for _ in range(2))
    assert first == second
    assert not {id(ce) for ce in first} & {id(ce) for ce in second}


def test_one_compile_compiles_each_distinct_ce_once(monkeypatch):
    """What a condition element compiles to depends on the CE and on the
    bindings of the variables it names: one ``ReteNetwork.compile``
    runs ``_compile_ce`` once per distinct pair (101 on weaver 8x4, for
    99 CE objects), not once per occurrence, and a second ``compile``
    runs it again."""
    compiled = []
    real = ReteNetwork._compile_ce

    def counting(self, ce, bindings, prod):
        compiled.append(id(ce))
        return real(self, ce, bindings, prod)

    monkeypatch.setattr(ReteNetwork, "_compile_ce", counting)
    prog = parse_program(SOURCES["weaver-8x4"]())
    ces = _ces(prog)
    ReteNetwork.compile(prog)
    assert len(ces) == 2121
    assert len(compiled) == 101
    assert set(compiled) == {id(ce) for ce in ces}
    ReteNetwork.compile(prog)
    assert len(compiled) == 2 * 101


def test_a_shared_ce_compiles_apart_under_other_bindings():
    """One CE object, two productions: ``<v>`` is bound by the first
    CE in one and unbound in the other, so it is a join test in one and
    a fresh binding in the other."""
    prog = parse_program(
        "(p a (x ^v <v>) (y ^w <v>) --> (halt))"
        "(p b (z ^v 1) (y ^w <v>) --> (halt))"
    )
    assert prog.productions[0].ces[1] is prog.productions[1].ces[1]
    a, b = ReteNetwork.compile(prog).two_input_nodes()
    assert a.tests == (("w", "=", 0, "v"),)
    assert b.tests == ()


def _actions(prog) -> list:
    return [a for p in prog.productions for a in p.actions] + list(prog.startup)


def test_one_parse_builds_each_distinct_action_once(monkeypatch):
    built = []
    real = parser._parse_action

    def counting(stream):
        built.append(None)
        return real(stream)

    monkeypatch.setattr(parser, "_parse_action", counting)
    actions = _actions(parse_program(SOURCES["weaver-8x4"]()))
    assert len(actions) == 1015  # 945 on right-hand sides, 70 at startup
    assert len(built) == len({id(a) for a in actions}) == len({repr(a) for a in actions}) == 184


def test_two_parses_share_no_action():
    source = SOURCES["weaver-8x4"]()
    first, second = (_actions(parse_program(source)) for _ in range(2))
    assert first == second
    assert not {id(a) for a in first} & {id(a) for a in second}


def test_action_keys_keep_1_and_1_0_and_minus_0_0_apart():
    """``1 == 1.0`` and ``0 == -0.0``; a spelling keyed on ``==`` would
    make every one of these the first.  A repeated spelling is shared."""
    values = ("1", "1.0", "-0.0", "0", "1")
    prog = parse_program(" ".join(
        f"(p r{i} (x) --> (make y ^v {v}) (write (compute {v} + 1)))"
        for i, v in enumerate(values)
    ))
    makes = [p.actions[0] for p in prog.productions]
    writes = [p.actions[1] for p in prog.productions]
    assert [repr(m.assigns[0][1].value) for m in makes] == list(values)
    assert [repr(w.values[0].operands[0].value) for w in writes] == list(values)
    assert makes[0] is makes[4] and writes[0] is writes[4]
    assert len({id(m) for m in makes}) == len({id(w) for w in writes}) == 4


def test_a_form_over_several_lines_is_keyed_by_all_of_its_text():
    """Forms that agree on their first line and differ below it are
    different spellings; a repeat of the whole text is shared."""
    prog = parse_program("".join(
        f"(p r{i} (goal ^x 1\n   ^y {y})\n -->\n (make b ^v 1\n   ^w {y}))\n"
        for i, y in enumerate((2, 3, 2))
    ))
    (ce2,), (ce3,), (again,) = (p.ces for p in prog.productions)
    (make2,), (make3,), (make_again,) = (p.actions for p in prog.productions)
    assert ce2 != ce3 and make2 != make3
    assert again is ce2 and make_again is make2


# -- the collector pause ------------------------------------------------------

GOOD = "(p r (a ^x <v>) (b ^y <v>) --> (modify 1 ^x 2) (halt))"


def _entry_points():
    """(name, call that returns, call that raises) for every set-up
    entry point that pauses the collector."""
    prog = parse_program(GOOD)
    net = ReteNetwork.compile(prog)
    unbound = parse_program("(p r (a ^x > <v>) --> (halt))")
    bad_rhs = parse_program("(p r (a) -(b) --> (remove 2))").productions[0]
    return [
        ("parse_program", lambda: parse_program(GOOD), lambda: parse_program("(p r (a")),
        ("ReteNetwork.compile", lambda: ReteNetwork.compile(prog),
         lambda: ReteNetwork.compile(unbound)),
        ("CompiledRHS", lambda: CompiledRHS(prog.productions[0]),
         lambda: CompiledRHS(bad_rhs)),
        ("compile_plans", lambda: compile_plans(net), None),
    ]


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_each_entry_point_hands_back_the_callers_gc_state(gc_state):
    for name, returns, raises in _entry_points():
        returns()
        assert gc.isenabled() is gc_state, f"{name} returned"
        if raises is not None:
            with pytest.raises((ParseError, CompileError, RuntimeOps5Error)):
                raises()
            assert gc.isenabled() is gc_state, f"{name} raised"


def test_the_collector_is_paused_inside_set_up(monkeypatch):
    """Each entry point's work runs with ``gc`` off, even when the
    caller left it on."""
    seen = {}

    def spy(module, attr, label):
        real = getattr(module, attr)

        def watched(*args, **kwargs):
            seen[label] = gc.isenabled()
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, watched)

    spy(parser, "scan", "parse_program")
    spy(ReteNetwork, "_add_production", "ReteNetwork.compile")
    spy(rhs, "binding_plan", "CompiledRHS")
    from repro.corgi import plan
    spy(plan, "_compiled", "compile_plans")
    assert gc.isenabled()
    for _name, returns, _raises in _entry_points():
        returns()
    assert seen == dict.fromkeys(
        ["parse_program", "ReteNetwork.compile", "CompiledRHS", "compile_plans"], False
    )
    assert gc.isenabled()


def test_a_nested_entry_point_does_not_re_enable_the_collector():
    states = []

    @collector_paused
    def set_up():
        prog = parse_program(GOOD)
        states.append(gc.isenabled())
        net = ReteNetwork.compile(prog)
        states.append(gc.isenabled())
        CompiledRHS(prog.productions[0])
        compile_plans(net)
        states.append(gc.isenabled())
        raise CompileError("after the nested calls")

    assert gc.isenabled()
    with pytest.raises(CompileError):
        set_up()
    assert states == [False, False, False]
    assert gc.isenabled()

