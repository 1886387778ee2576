"""Compiled and interpreted alpha dispatch agree, WME by WME.

``ReteNetwork.alpha_dispatch`` returns the alpha terminals a WME passes,
in the depth-first order of the constant-test tree (the class terminal
first, then each sibling list from its last node to its first, a
passing node's terminals before its subtree), and the number of
constant tests the walk ran.  The sequential trace records root order
and ``MatchStats.constant_tests`` counts the tests, so both must be
exact.  Here the interpreted network, which walks the tree node by node
and evaluates each test with :func:`repro.rete.evaluators._eval_alpha`,
is the reference for the compiled one, over:

* every WME of every bundled program's run to halt (the conformance
  sizes), and of corgick's four generator profiles (30 seeds each);
* a hand-written program whose sibling lists mix every test kind;
* randomly drawn alpha networks, probed with random WMEs.
"""

from __future__ import annotations

import random

import pytest

from repro import check
from repro.corgi import diffcheck
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program, parse_production
from repro.ops5.wme import WME
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork

SEEDS = 30


def dispatch(net: ReteNetwork, wme: WME):
    hits, n_tests = net.alpha_dispatch(wme)
    return [t.alpha_id for t in hits], n_tests


def assert_agree(program, wmes) -> int:
    """Both modes' answer for every WME; returns how many WMEs passed
    some non-class test, so a caller can insist the probe was not
    vacuous."""
    compiled = ReteNetwork.compile(program, mode="compiled")
    interpreted = ReteNetwork.compile(program, mode="interpreted")
    reached = 0
    for wme in wmes:
        want = dispatch(interpreted, wme)
        assert dispatch(compiled, wme) == want, str(wme)
        reached += want[1] > 1
    return reached


class Recording:
    """A sequential matcher that keeps every WME it is sent."""

    def __init__(self, network: ReteNetwork) -> None:
        self.inner = SequentialMatcher(network)
        self.wmes = []

    def process_changes(self, changes):
        self.wmes.extend(change.wme for change in changes)
        return self.inner.process_changes(changes)


@pytest.mark.parametrize("name", sorted(check.PROGRAMS))
def test_every_wme_of_a_bundled_run(name):
    program = parse_program(check.PROGRAMS[name]())
    matcher = Recording(ReteNetwork.compile(program))
    interp = Interpreter(program, matcher=matcher)
    interp.run(max_cycles=check.MAX_CYCLES)
    assert matcher.wmes
    assert assert_agree(program, matcher.wmes) > 0


@pytest.mark.parametrize("profile", sorted(diffcheck.PROFILES))
def test_every_wme_of_generated_programs(profile):
    for seed in range(SEEDS):
        load = check.workload(seed, diffcheck.PROFILES[profile])
        assert_agree(load.ast, [c.wme for batch in load.batches for c in batch])


#: Sibling lists of every kind under one class: an ``=`` group on a
#: shared attribute interleaved with ordering, ``<>``, ``<=>``,
#: disjunction and intra-element tests; int and float constants equal
#: by ``==``; a symbol spelled ``nil``; a second ``=`` group under a
#: passing node, beside a test on another attribute.
MIXED = """
(p e0 (k ^a 0) --> (halt))
(p e1 (k ^a 1) --> (halt))
(p e1f (k ^a 1.0) --> (halt))
(p e25 (k ^a 2.5) --> (halt))
(p ex (k ^a x) --> (halt))
(p enil (k ^a nil) --> (halt))
(p lt (k ^a < 1) --> (halt))
(p ge (k ^a >= 2.5) --> (halt))
(p ne (k ^a <> x) --> (halt))
(p same (k ^a <=> 1) --> (halt))
(p samesym (k ^a <=> x) --> (halt))
(p dj (k ^a << 0 x 2.5 >>) --> (halt))
(p intra (k ^a <v> ^b > <v>) --> (halt))
(p sub0 (k ^a 1 ^b 0) --> (halt))
(p sub1 (k ^a 1 ^b 1) --> (halt))
(p subx (k ^a 1 ^b x) --> (halt))
(p subo (k ^a 1 ^c <= 0) --> (halt))
(p bare (k) --> (halt))
(p deep (k ^a 1 ^b 1 ^c 1) --> (halt))
(p deepo (k ^a 1 ^b 1 ^c > 1) --> (halt))
(p bonly (k ^b 1) --> (halt))
(p other (j ^a 1) --> (halt))
"""

VALUES = (None, -1, 0, 1, 1.0, 2, 2.5, 3.0, "x", "y", "nil")


def wmes_over(klasses, attrs, values, rng=None, n=None):
    """Every (class, value per attr) combination — or ``n`` random ones
    — with ``None`` meaning the attribute is absent."""
    if rng is None:
        combos = [[]]
        for _attr in attrs:
            combos = [c + [v] for c in combos for v in values]
    else:
        combos = [[rng.choice(values) for _attr in attrs] for _ in range(n)]
    out = []
    for klass in klasses:
        for combo in combos:
            kv = {a: v for a, v in zip(attrs, combo) if v is not None}
            out.append(WME.make(klass, kv, len(out) + 1))
    return out


def test_mixed_sibling_lists():
    program = parse_program(MIXED)
    wmes = wmes_over(("k", "j", "unknown"), ("a", "b", "c"), VALUES)
    assert assert_agree(program, wmes) > len(wmes) // 3


def test_constants_beyond_the_float_range():
    """``1e999`` reads as ``inf``, which is how ``repr`` writes it into
    the generated text: the name must resolve there."""
    program = parse_program(
        "(p huge (k ^b < 1e999) --> (halt))\n"
        "(p tiny (k ^c > -1e999 ^b << 1 1e999 >>) --> (halt))"
    )
    wmes = wmes_over(("k",), ("b", "c"), VALUES + (float("inf"),))
    assert assert_agree(program, wmes) == len(wmes)


def test_a_production_added_after_compile():
    """The class an added production touches dispatches it at once."""
    program = parse_program(MIXED)
    compiled = ReteNetwork.compile(program)
    before = dispatch(compiled, WME.make("k", {"a": 1, "b": 2, "c": 7}, 1))
    extra = "(p late (k ^a 1 ^b 2 ^c 7) --> (halt))"
    compiled.add_production(parse_production(extra))
    reference = ReteNetwork.compile(parse_program(MIXED + extra), mode="interpreted")
    for wme in wmes_over(("k", "j"), ("a", "b", "c"), (None, 1, 2, 7)):
        assert dispatch(compiled, wme) == dispatch(reference, wme), str(wme)
    after = dispatch(compiled, WME.make("k", {"a": 1, "b": 2, "c": 7}, 1))
    assert len(after[0]) == len(before[0]) + 1 and after[1] > before[1]


CONSTS = ("0", "1", "2", "1.0", "2.5", "-1", "x", "y", "nil")
OPS = ("<>", "<", "<=", ">", ">=", "<=>")


def random_alpha_program(rng: random.Random) -> str:
    """Single-CE rules over two classes whose tests share attributes,
    so chains share prefixes and sibling lists mix kinds."""
    rules = []
    for i in range(rng.randint(4, 24)):
        tests = []
        attrs = rng.sample(("a", "b", "c"), rng.randint(0, 3))
        bound = None
        for attr in attrs:
            roll = rng.random()
            if roll < 0.5:
                tests.append(f"^{attr} {rng.choice(CONSTS)}")
            elif roll < 0.7:
                tests.append(f"^{attr} {rng.choice(OPS)} {rng.choice(CONSTS)}")
            elif roll < 0.8:
                values = " ".join(rng.sample(CONSTS, rng.randint(1, 3)))
                tests.append(f"^{attr} << {values} >>")
            elif roll < 0.9:
                lo, hi = rng.choice(CONSTS), rng.choice(CONSTS)
                tests.append(f"^{attr} {{ > {lo} <= {hi} }}")
            elif bound is None:
                bound = attr
                tests.append(f"^{attr} <v>")
            else:
                tests.append(f"^{attr} {rng.choice(OPS + ('=',))} <v>")
        rules.append(f"(p r{i} (k{rng.randrange(2)} {' '.join(tests)}) --> (halt))")
    return "\n".join(rules)


def test_random_alpha_networks():
    rng = random.Random(1988)
    reached = 0
    for _case in range(60):
        program = parse_program(random_alpha_program(rng))
        wmes = wmes_over(("k0", "k1", "k2"), ("a", "b", "c"), VALUES, rng, 60)
        reached += assert_agree(program, wmes)
    assert reached > 1000


def test_a_chain_deeper_than_the_indent_limit():
    """A CE of 120 tests is a chain 120 nodes deep, past the 100
    indentation levels CPython's tokenizer allows: the class function
    generates the part below a fixed depth as functions of its own."""
    bounds = " ".join(f"> {i}" for i in range(120))
    attrs = " ".join(f"^a{i:03} {i}" for i in range(120))
    program = parse_program(
        f"(p conj (k ^a {{ {bounds} }}) --> (halt))\n(p attrs (j {attrs}) --> (halt))"
    )
    wmes = [WME.make("k", {"a": v}, v + 500) for v in range(-2, 124)]
    for miss in range(121):
        kv = {f"a{i:03}": i + (i == miss) for i in range(120)}
        wmes.append(WME.make("j", kv, miss + 1))
    assert assert_agree(program, wmes) == len(wmes)
    hits, n_tests = dispatch(ReteNetwork.compile(program), wmes[-1])
    assert len(hits) == 1 and n_tests == 1 + 120


def test_a_switch_at_every_level():
    """Sixty levels of two ``=`` siblings on one attribute, each level
    one dict lookup and two nested blocks."""
    depth = 60
    rules = [f"(p all (k {' '.join(f'^a{i:02} 1' for i in range(depth))}) --> (halt))"]
    for k in range(depth):
        tests = " ".join([f"^a{i:02} 1" for i in range(k)] + [f"^a{k:02} 2"])
        rules.append(f"(p r{k} (k {tests}) --> (halt))")
    program = parse_program("\n".join(rules))
    wmes = []
    for stop in range(depth + 1):
        for last in (1, 2, 3):
            kv = {f"a{i:02}": 1 for i in range(stop)}
            if stop < depth:
                kv[f"a{stop:02}"] = last
            wmes.append(WME.make("k", kv, len(wmes) + 1))
    assert assert_agree(program, wmes) == len(wmes)
    everything = dispatch(ReteNetwork.compile(program), wmes[-1])
    assert len(everything[0]) == 1 and everything[1] == 1 + 2 * depth


def test_a_sibling_list_wider_than_an_elif_chain():
    """3 000 ``=`` siblings on one attribute: one ``elif`` chain that
    long exhausts CPython's compiler, so switches are cut into runs."""
    program = parse_program(
        "\n".join(f"(p r{i} (k ^a {i}) --> (halt))" for i in range(3000))
        + "\n(p mid (k ^a 1500 ^b 1) --> (halt))"
    )
    wmes = [WME.make("k", {"a": v, "b": 1}, v + 2) for v in range(-1, 3001, 7)]
    for v in (0, 63, 64, 1500, 2999, 1500.0, "x"):
        wmes.append(WME.make("k", {"a": v}, len(wmes) + 9000))
    assert assert_agree(program, wmes) == len(wmes)
