"""Unit tests for the OPS5 parser."""

import pytest

from repro.ops5.astnodes import (
    BindAction,
    Conjunction,
    Disjunction,
    HaltAction,
    Lit,
    MakeAction,
    ModifyAction,
    RemoveAction,
    RhsCompute,
    RhsConst,
    RhsVar,
    Test,
    Var,
    WriteAction,
)
from repro.ops5.errors import ParseError
from repro.ops5.parser import parse_production, parse_program


class TestProductions:
    def test_minimal_production(self):
        p = parse_production("(p r1 (a) --> (halt))")
        assert p.name == "r1"
        assert len(p.ces) == 1
        assert p.ces[0].klass == "a"
        assert p.actions == (HaltAction(),)

    def test_constant_test(self):
        p = parse_production("(p r (goal ^type find) --> (halt))")
        at = p.ces[0].tests[0]
        assert at.attr == "type"
        assert at.test == Test("=", Lit("find"))

    def test_variable_test(self):
        p = parse_production("(p r (goal ^color <c>) --> (halt))")
        assert p.ces[0].tests[0].test == Test("=", Var("c"))

    def test_predicate_with_constant(self):
        p = parse_production("(p r (n ^v > 10) --> (halt))")
        assert p.ces[0].tests[0].test == Test(">", Lit(10))

    def test_predicate_with_variable(self):
        p = parse_production("(p r (a ^x <v>) (b ^y <= <v>) --> (halt))")
        assert p.ces[1].tests[0].test == Test("<=", Var("v"))

    def test_disjunction(self):
        p = parse_production("(p r (b ^color << red green blue >>) --> (halt))")
        assert p.ces[0].tests[0].test == Disjunction(("red", "green", "blue"))

    def test_conjunction(self):
        p = parse_production("(p r (n ^v { <x> > 2 <= 10 }) --> (halt))")
        conj = p.ces[0].tests[0].test
        assert isinstance(conj, Conjunction)
        assert conj.tests == (Test("=", Var("x")), Test(">", Lit(2)), Test("<=", Lit(10)))

    def test_negated_ce(self):
        p = parse_production("(p r (a) - (b ^x <v>) --> (halt))")
        assert not p.ces[0].negated
        assert p.ces[1].negated

    def test_first_ce_may_not_be_negated(self):
        with pytest.raises(ParseError):
            parse_production("(p r - (a) --> (halt))")

    def test_empty_lhs_rejected(self):
        with pytest.raises(ParseError):
            parse_production("(p r --> (halt))")

    def test_multiple_ces(self):
        p = parse_production("(p r (a) (b) (c) --> (halt))")
        assert [ce.klass for ce in p.ces] == ["a", "b", "c"]


class TestActions:
    def test_make(self):
        p = parse_production("(p r (a) --> (make b ^x 1 ^y foo))")
        action = p.actions[0]
        assert isinstance(action, MakeAction)
        assert action.klass == "b"
        assert action.assigns == (("x", RhsConst(1)), ("y", RhsConst("foo")))

    def test_modify(self):
        p = parse_production("(p r (a ^n <n>) --> (modify 1 ^n <n>))")
        action = p.actions[0]
        assert isinstance(action, ModifyAction)
        assert action.ce_index == 1
        assert action.assigns == (("n", RhsVar("n")),)

    def test_remove(self):
        p = parse_production("(p r (a) --> (remove 1))")
        assert p.actions[0] == RemoveAction(ce_index=1)

    def test_write(self):
        p = parse_production("(p r (a ^v <v>) --> (write hello <v> 3))")
        action = p.actions[0]
        assert isinstance(action, WriteAction)
        assert action.values == (RhsConst("hello"), RhsVar("v"), RhsConst(3))

    def test_bind(self):
        p = parse_production("(p r (a) --> (bind <x> 5))")
        assert p.actions[0] == BindAction(var="x", value=RhsConst(5))

    def test_compute(self):
        p = parse_production("(p r (a ^v <v>) --> (make b ^v (compute <v> + 1)))")
        value = p.actions[0].assigns[0][1]
        assert isinstance(value, RhsCompute)
        assert value.ops == ("+",)
        assert value.operands == (RhsVar("v"), RhsConst(1))

    def test_compute_chain(self):
        p = parse_production("(p r (a ^v <v>) --> (make b ^v (compute <v> * 2 + 1)))")
        value = p.actions[0].assigns[0][1]
        assert value.ops == ("*", "+")

    def test_compute_subtraction(self):
        p = parse_production("(p r (a ^v <v>) --> (make b ^v (compute <v> - 1)))")
        assert p.actions[0].assigns[0][1].ops == ("-",)

    def test_unknown_action_rejected(self):
        with pytest.raises(ParseError):
            parse_production("(p r (a) --> (frobnicate 1))")

    def test_multiple_actions_in_order(self):
        p = parse_production("(p r (a) --> (remove 1) (make b) (halt))")
        assert [type(a).__name__ for a in p.actions] == [
            "RemoveAction",
            "MakeAction",
            "HaltAction",
        ]


class TestPrograms:
    def test_literalize(self):
        prog = parse_program("(literalize block id color)")
        assert prog.literalizes[0].klass == "block"
        assert prog.literalizes[0].attrs == ("id", "color")
        assert prog.declared_attrs["block"] == ("id", "color")

    def test_startup(self):
        prog = parse_program("(startup (make a ^x 1) (make b))")
        assert len(prog.startup) == 2

    def test_duplicate_production_names_rejected(self):
        # A ParseError like every other bad program (it was a bare
        # ValueError from Program.__post_init__), at the line of the
        # second definition.
        with pytest.raises(ParseError, match="duplicate production name 'r'") as err:
            parse_program("(p r (a) --> (halt))\n\n(p q (a) --> (halt))\n(p r (b) --> (halt))")
        assert err.value.line == 4

    def test_unknown_top_level_form(self):
        with pytest.raises(ParseError):
            parse_program("(frob x)")

    def test_figure_2_2_parses(self):
        from tests.conftest import FIGURE_2_2

        prog = parse_program(FIGURE_2_2)
        assert {p.name for p in prog.productions} == {"p1", "p2"}
        p1 = prog.production("p1")
        assert p1.ces[2].negated

    def test_unterminated_form(self):
        with pytest.raises(ParseError):
            parse_program("(p r (a) --> (halt)")

    @pytest.mark.parametrize(
        "form,last_line",
        [
            ("(p r\n  (a ^x 1)", 5),
            ("(p r\n  (a ^x 1)\n  -->\n  (make b", 7),
            ("(p r (a ^x", 4),  # the 'in condition element' message
            ("(literalize a\n  x y", 5),
            ("(startup (make a)", 4),
            ("(", 4),
        ],
    )
    def test_end_of_input_is_positioned_at_the_open_form(self, form, last_line):
        # It carried line 0: an unclosed form anywhere in a 4 000-line
        # source reported no position at all.
        source = "(literalize b z)\n\n(p ok (b) --> (halt))\n" + form
        with pytest.raises(ParseError, match="unexpected end of input") as err:
            parse_program(source)
        assert err.value.line == 4
        assert f"at line {last_line}: unclosed form (line 4)" in str(err.value)

    def test_specificity_counts_tests(self):
        p = parse_production("(p r (a ^x 1 ^y <v>) (b ^z { <w> > 2 }) --> (halt))")
        # class(a) + x + y + class(b) + two conjunction members = 6
        assert p.specificity() == 6

    def test_ce_variables_in_order(self):
        p = parse_production("(p r (a ^x <b> ^y <a> ^z <b>) --> (halt))")
        assert p.ces[0].variables() == ("b", "a")
