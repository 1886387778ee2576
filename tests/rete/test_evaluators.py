"""Unit tests for interpreted vs compiled test evaluation."""

import builtins

import pytest

from repro.ops5.wme import WME
from repro.rete.evaluators import (
    CompiledEvaluator,
    InterpretedEvaluator,
    compare,
    make_evaluator,
)
from repro.rete.nodes import AlphaTerminal, ConstantTestNode


def w(**attrs) -> WME:
    return WME.make("c", attrs, 1)


def alpha_test(evaluator, *descs):
    """The class dispatch of sibling nodes testing ``descs``, as a
    predicate: does a WME pass the first of them?  (Alpha tests exist
    only inside a class's dispatch function.)"""
    nodes = []
    for i, desc in enumerate(descs):
        node = ConstantTestNode(i + 1, desc)
        node.terminals.append(AlphaTerminal(i + 1))
        nodes.append(node)
    dispatch = evaluator.class_dispatch(None, nodes)
    return lambda wme: 1 in [t.alpha_id for t in dispatch(wme)[0]]


class TestCompare:
    def test_equality(self):
        assert compare(1, "=", 1)
        assert not compare(1, "=", 2)
        assert compare("a", "=", "a")

    def test_inequality(self):
        assert compare(1, "<>", 2)
        assert not compare("x", "<>", "x")

    def test_numeric_ordering(self):
        assert compare(1, "<", 2)
        assert compare(2, "<=", 2)
        assert compare(3, ">", 2)
        assert compare(3, ">=", 3)

    def test_string_ordering(self):
        assert compare("a", "<", "b")

    def test_mixed_types_fail_ordering(self):
        assert not compare("a", "<", 1)
        assert not compare(1, ">", "a")

    def test_none_fails_ordering(self):
        assert not compare(None, "<", 1)

    def test_same_type(self):
        assert compare(1, "<=>", 2.5)        # both numeric
        assert compare("a", "<=>", "b")      # both symbolic
        assert not compare(1, "<=>", "a")

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            compare(1, "~=", 1)


@pytest.fixture(params=["interpreted", "compiled"])
def evaluator(request):
    return make_evaluator(request.param)


class TestAlphaTests:
    def test_const_eq(self, evaluator):
        test = alpha_test(evaluator, ("const", "color", "=", "red"))
        assert test(w(color="red"))
        assert not test(w(color="blue"))
        assert not test(w())

    def test_const_ordering(self, evaluator):
        test = alpha_test(evaluator, ("const", "n", ">", 5))
        assert test(w(n=6))
        assert not test(w(n=5))
        assert not test(w(n="six"))

    def test_intra(self, evaluator):
        test = alpha_test(evaluator, ("intra", "x", "=", "y"))
        assert test(w(x=1, y=1))
        assert not test(w(x=1, y=2))

    def test_disjunction(self, evaluator):
        test = alpha_test(evaluator, ("disj", "c", frozenset({"red", "green"})))
        assert test(w(c="red"))
        assert not test(w(c="blue"))


class TestJoinTests:
    def test_empty_tests_always_true(self, evaluator):
        """Absent means None: the node joins every candidate, no call."""
        assert evaluator.join_tests(()) is None

    def test_single_eq(self, evaluator):
        fn = evaluator.join_tests((("y", "=", 0, "x"),))
        assert fn((w(x=1),), w(y=1))
        assert not fn((w(x=1),), w(y=2))

    def test_conjunction_of_tests(self, evaluator):
        fn = evaluator.join_tests((("y", "=", 0, "x"), ("z", ">", 0, "x")))
        assert fn((w(x=1),), w(y=1, z=5))
        assert not fn((w(x=1),), w(y=1, z=0))

    def test_position_indexing(self, evaluator):
        fn = evaluator.join_tests((("v", "=", 1, "b"),))
        assert fn((w(b=9), w(b=2)), w(v=2))


class TestKeyFunctions:
    def test_empty_key(self, evaluator):
        """Absent means None: the node files under ``()``, no call."""
        assert evaluator.key_fns(()) == (None, None)

    def test_keys_align(self, evaluator):
        lk, rk = evaluator.key_fns((("y", "=", 0, "x"), ("z", "=", 0, "q")))
        left = lk((w(x=1, q="a"),))
        right = rk(w(y=1, z="a"))
        assert left == right == (1, "a")


class TestModeEquivalence:
    CASES = [
        ("const", "a", "=", 5),
        ("const", "a", "<>", 5),
        ("const", "a", ">=", 5),
        ("intra", "a", "<", "b"),
    ]

    @pytest.mark.parametrize("desc", CASES)
    def test_alpha_agree(self, desc):
        interp = alpha_test(InterpretedEvaluator(), desc)
        comp = alpha_test(CompiledEvaluator(), desc)
        for wme in (w(a=5, b=6), w(a=4, b=2), w(a="x", b="y"), w()):
            assert interp(wme) == comp(wme), (desc, wme)

    def test_join_agree(self):
        descs = (("y", "=", 0, "x"), ("z", "<=", 0, "x"))
        fi = InterpretedEvaluator().join_tests(descs)
        fc = CompiledEvaluator().join_tests(descs)
        for left, right in [
            ((w(x=3),), w(y=3, z=1)),
            ((w(x=3),), w(y=3, z=9)),
            ((w(x=3),), w(y=4, z=1)),
            ((w(),), w()),
        ]:
            assert fi(left, right) == fc(left, right)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_evaluator("jit")


PRED_OPS = ("=", "<>", "<", "<=", ">", ">=", "<=>")
#: ``None`` stands for an absent attribute.
PRED_VALUES = (None, -1, 0, 1, 1.0, 2.5, "a", "abc", "abd")
PAIRS = [(a, b) for a in PRED_VALUES for b in PRED_VALUES]


def wv(**attrs) -> WME:
    return w(**{k: v for k, v in attrs.items() if v is not None})


class TestPredicateTable:
    """Every op x every ordered pair x every compiled shape: the
    compiled test, the interpreted one and :func:`compare` agree."""

    @staticmethod
    def agree(desc_fn, cases):
        fi, fc = desc_fn(InterpretedEvaluator()), desc_fn(CompiledEvaluator())
        for args, want in cases:
            assert bool(fi(*args)) is want, args
            assert bool(fc(*args)) is want, args

    @pytest.mark.parametrize("op", PRED_OPS)
    def test_join(self, op):
        self.agree(
            lambda ev: ev.join_tests((("y", op, 0, "x"),)),
            [(((wv(x=b),), wv(y=a)), compare(a, op, b)) for a, b in PAIRS],
        )

    @pytest.mark.parametrize("op", PRED_OPS)
    def test_join_with_two_ordering_descriptors(self, op):
        """Two descriptors in one test: each needs its own temporaries."""
        self.agree(
            lambda ev: ev.join_tests((("y", op, 0, "x"), ("z", ">=", 1, "u"))),
            [
                (((wv(x=b), wv(u=a)), wv(y=a, z=b)),
                 compare(a, op, b) and compare(b, ">=", a))
                for a, b in PAIRS
            ],
        )

    @pytest.mark.parametrize("op", PRED_OPS)
    def test_alpha_const(self, op):
        # A constant is a literal of the source, never None.
        for b in PRED_VALUES[1:]:
            self.agree(
                lambda ev: alpha_test(ev, ("const", "a", op, b)),
                [((wv(a=a),), compare(a, op, b)) for a in PRED_VALUES],
            )

    @pytest.mark.parametrize("op", PRED_OPS)
    def test_alpha_intra(self, op):
        self.agree(
            lambda ev: alpha_test(ev, ("intra", "a", op, "b")),
            [((wv(a=a, b=b),), compare(a, op, b)) for a, b in PAIRS],
        )

    def test_alpha_membership_runs(self):
        """Adjacent ``=`` tests on one attribute are one dict lookup in
        the compiled class function, and a disjunction beside one is
        inlined; a lookup finds exactly what ``==`` does, 1 against 1.0
        included."""
        other = ("const", "a", "=", "zz")
        for b in PRED_VALUES[1:]:
            for desc in (("const", "a", "=", b), ("disj", "a", frozenset({b, "q"}))):
                self.agree(
                    lambda ev: alpha_test(ev, desc, other),
                    [((wv(a=a),), compare(a, "=", b)) for a in PRED_VALUES],
                )

    def test_generated_text_calls_no_helper(self, monkeypatch):
        """An ordering test is spelled inline: no generated text names
        the dispatcher or a helper, so a test costs no frame of its own."""
        sources = []
        real = builtins.compile

        def recording(source, *args, **kwargs):
            sources.append(source)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", recording)
        ev = CompiledEvaluator()
        for op in PRED_OPS:
            ev.join_tests((("y", op, 0, "x"), ("z", op, 1, "u")))
            alpha_test(ev, ("intra", "a", op, "b"))
            for b in PRED_VALUES[1:]:
                alpha_test(ev, ("const", "a", op, b))
        assert len(sources) >= len(PRED_OPS) * 3
        for name in ("_cmp", "_ord", "compare"):
            assert not [src for src in sources if name in src], name
