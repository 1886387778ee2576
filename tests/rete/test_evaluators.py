"""Unit tests for interpreted vs compiled test evaluation."""

import pytest

from repro.ops5.wme import WME
from repro.rete.evaluators import (
    CompiledEvaluator,
    InterpretedEvaluator,
    compare,
    make_evaluator,
)


def w(**attrs) -> WME:
    return WME.make("c", attrs, 1)


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
        test = evaluator.alpha_test(("const", "color", "=", "red"))
        assert test(w(color="red"))
        assert not test(w(color="blue"))
        assert not test(w())

    def test_const_ordering(self, evaluator):
        test = evaluator.alpha_test(("const", "n", ">", 5))
        assert test(w(n=6))
        assert not test(w(n=5))
        assert not test(w(n="six"))

    def test_intra(self, evaluator):
        test = evaluator.alpha_test(("intra", "x", "=", "y"))
        assert test(w(x=1, y=1))
        assert not test(w(x=1, y=2))

    def test_disjunction(self, evaluator):
        test = evaluator.alpha_test(("disj", "c", frozenset({"red", "green"})))
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
        interp = InterpretedEvaluator().alpha_test(desc)
        comp = CompiledEvaluator().alpha_test(desc)
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
