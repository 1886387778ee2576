"""Unit tests for the OPS5 tokenizer."""

import pytest

from repro.ops5.lexer import TokenType, tokenize


def types(source):
    return [t[0] for t in tokenize(source)]


def values(source):
    return [t[1] for t in tokenize(source)]


class TestBasicTokens:
    def test_parens(self):
        assert types("()") == [TokenType.LPAREN, TokenType.RPAREN]

    def test_braces(self):
        assert types("{}") == [TokenType.LBRACE, TokenType.RBRACE]

    def test_hat(self):
        assert types("^attr")[0] == TokenType.HAT

    def test_symbol(self):
        toks = tokenize("hello-world")
        assert toks[0][0] == TokenType.SYMBOL
        assert toks[0][1] == "hello-world"

    def test_arrow(self):
        assert types("-->") == [TokenType.ARROW]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("  \n\t  ") == []


class TestNumbers:
    def test_integer(self):
        toks = tokenize("42")
        assert toks[0][0] == TokenType.NUMBER
        assert toks[0][1] == 42

    def test_negative_integer(self):
        toks = tokenize("-17")
        assert toks[0][0] == TokenType.NUMBER
        assert toks[0][1] == -17

    def test_float(self):
        toks = tokenize("2.5")
        assert toks[0][1] == 2.5

    def test_scientific(self):
        toks = tokenize("1e3")
        assert toks[0][1] == 1000.0

    def test_symbol_starting_with_digit(self):
        # '2x' is a symbol, not a number followed by a symbol.
        toks = tokenize("2x")
        assert toks[0][0] == TokenType.SYMBOL
        assert toks[0][1] == "2x"


class TestVariablesAndPredicates:
    def test_variable(self):
        toks = tokenize("<x>")
        assert toks[0][0] == TokenType.VARIABLE
        assert toks[0][1] == "x"

    def test_variable_with_dashes(self):
        toks = tokenize("<block-name>")
        assert toks[0][1] == "block-name"

    def test_less_than_is_predicate(self):
        toks = tokenize("< 5")
        assert toks[0][0] == TokenType.PREDICATE
        assert toks[0][1] == "<"

    def test_all_predicates(self):
        for op in ("=", "<>", "<", "<=", ">", ">=", "<=>"):
            toks = tokenize(f"{op} 1")
            assert toks[0][0] == TokenType.PREDICATE, op
            assert toks[0][1] == op, op

    def test_same_type_predicate_longest_match(self):
        # '<=>' must not lex as '<=' '>'.
        toks = tokenize("<=> x")
        assert toks[0][1] == "<=>"

    def test_disjunction_brackets(self):
        toks = tokenize("<< red green >>")
        assert toks[0][0] == TokenType.LDOUBLE
        assert toks[-1][0] == TokenType.RDOUBLE
        assert [t[1] for t in toks[1:-1]] == ["red", "green"]

    def test_minus_before_paren_is_negation(self):
        toks = tokenize("- (c1)")
        assert toks[0][0] == TokenType.MINUS


class TestCommentsAndPositions:
    def test_comment_to_end_of_line(self):
        toks = tokenize("foo ; this is a comment\nbar")
        assert [t[1] for t in toks] == ["foo", "bar"]

    def test_comment_at_end_of_input(self):
        assert values("x ; trailing") == ["x"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\nc")
        assert [t[2] for t in toks] == [1, 2, 3]

    def test_column_numbers(self):
        toks = tokenize("ab cd")
        assert toks[0][3] == 1
        assert toks[1][3] == 4


class TestFullForms:
    def test_production_header(self):
        toks = tokenize("(p find-block (goal ^type find) --> (halt))")
        assert toks[0][0] == TokenType.LPAREN
        assert toks[1][1] == "p"
        assert toks[2][1] == "find-block"

    def test_condition_with_variable_and_predicate(self):
        toks = tokenize("(block ^size > <s> ^color <c>)")
        kinds = [t[0] for t in toks]
        assert TokenType.PREDICATE in kinds
        assert kinds.count(TokenType.VARIABLE) == 2

    def test_figure_2_1_lexes(self):
        src = "(p find-colored-block (goal ^type find-block ^color <c>) --> (modify 2))"
        toks = tokenize(src)
        assert toks[-1][0] == TokenType.RPAREN
