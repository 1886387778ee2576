"""Every ``ParseError``, message and line, pinned.

A parse error names the line of the token it is about (the form's ``(``
for an unclosed form, whose message also names the line of the last
token read).  The corpus reaches every ``raise`` in
:mod:`repro.ops5.parser` and the end-of-input path, mostly with the
offending token on a later line than the form's ``(``, behind blank and
comment-only lines, and after a production whose condition elements
and actions the parser has already stored.  ``Production.line`` of
every production in the three bench inputs is pinned too.  The expected
values were taken from the parser that built one ``(type, value, line,
column)`` tuple per token and read each error's line from it.
"""

import hashlib

import pytest

from repro.ops5.errors import ParseError
from repro.ops5.parser import parse_production, parse_program
from repro.programs import rubik, tourney, weaver

#: Lines 1-7: a comment, a literalize, a blank line and a clean
#: production; every case below starts on line 8.
PRELUDE = (
    "; prelude\n(literalize a x y)\n\n(p ok (a ^x 1)\n   (b ^y <v>)\n -->\n"
    "   (make c ^v <v>))\n"
)

#: name -> (text after PRELUDE, message, line).
CASES = {
    "literalize-attr": (
        "(literalize a\n  x ^y)", "expected SYMBOL, found HAT '^' (line 9)", 9),
    "top-lparen": ("\n  foo", "expected LPAREN, found SYMBOL 'foo' (line 9)", 9),
    "form-head": ("(\n  (p))", "expected form head, found '(' (line 9)", 9),
    "unknown-top": ("(\n frob)", "unknown top-level form 'frob' (line 9)", 9),
    "duplicate": ("(p ok (a) --> (halt))", "duplicate production name 'ok' (line 8)", 8),
    "bad-production-name": (
        "(p\n ^x (a) --> (halt))", "bad production name '^' (line 9)", 9),
    "empty-lhs": ("(p r\n --> (halt))", "production r has an empty LHS (line 8)", 8),
    "first-ce-negated": (
        "(p r\n -(a) --> (halt))",
        "production r: first condition element may not be negated (line 8)", 8),
    "ce-class": (
        "(p r (a ^x 1)\n  (<v>) --> (halt))", "expected SYMBOL, found VARIABLE 'v' (line 9)", 9),
    "ce-hat": ("(p r (a\n   x 1) --> (halt))", "expected HAT, found SYMBOL 'x' (line 9)", 9),
    "ce-attr": ("(p r (a ^\n (x)) --> (halt))", "bad attribute name '(' (line 9)", 9),
    "empty-conjunction": ("(p r (a ^x\n { }) --> (halt))", "empty conjunction {} (line 9)", 9),
    "disjunction-variable": (
        "(p r (a ^x << 1\n <v> >>) --> (halt))",
        "disjunctions may contain only constants, found 'v' (line 9)", 9),
    "empty-disjunction": (
        "(p r (a ^x\n<< >>) --> (halt))", "empty disjunction << >> (line 9)", 9),
    "value-test-hat": (
        "(p r (a ^x\n  ^y) --> (halt))", "bad value test starting with '^' (line 9)", 9),
    "value-test-minus": (
        "(p r (a ^x\n - ) --> (halt))", "bad value test starting with '-' (line 9)", 9),
    "predicate-operand": (
        "(p r (a ^x >\n  (b)) --> (halt))", "bad predicate operand '(' (line 9)", 9),
    "ce-not-a-form": (
        "(p r (a)\n\n; a comment line\n  x --> (halt))",
        "expected LPAREN, found SYMBOL 'x' (line 11)", 11),
    "unknown-action": ("(p r (a) -->\n (frob 1))", "unknown action 'frob' (line 9)", 9),
    "action-head": (
        "(p r (a) -->\n (\n <x>))", "expected SYMBOL, found VARIABLE 'x' (line 10)", 10),
    "make-class": (
        "(p r (a) --> (make\n ^x 1))", "expected SYMBOL, found HAT '^' (line 9)", 9),
    "modify-index": (
        "(p r (a) --> (modify\n x))", "expected NUMBER, found SYMBOL 'x' (line 9)", 9),
    "remove-index": (
        "(p r (a) --> (remove 1\n x))", "expected NUMBER, found SYMBOL 'x' (line 9)", 9),
    "bind-variable": (
        "(p r (a) --> (bind\n x 1))", "expected VARIABLE, found SYMBOL 'x' (line 9)", 9),
    "halt-rparen": (
        "(p r (a) --> (halt\n 1))", "expected RPAREN, found NUMBER 1 (line 9)", 9),
    "assign-attr": ("(p r (a) --> (make c ^\n (x)))", "bad attribute name '(' (line 9)", 9),
    "rhs-function": (
        "(p r (a) --> (make c ^x (\n frob)))", "unknown RHS function 'frob' (line 9)", 9),
    "rhs-value": ("(p r (a) --> (write\n ^x))", "bad RHS value '^' (line 9)", 9),
    "accept-rparen": (
        "(p r (a) --> (write (accept\n 1)))", "expected RPAREN, found NUMBER 1 (line 9)", 9),
    "compute-operator": (
        "(p r (a) --> (write (compute 1\n % 2)))", "unknown compute operator '%' (line 9)", 9),
    "compute-no-operator": (
        "(p r (a) --> (write (\ncompute 1)))", "compute needs at least one operator (line 9)", 9),
    "compute-no-operator-head-line": (
        "(p r (a) --> (write (compute\n 1)))",
        "compute needs at least one operator (line 8)", 8),
    "compute-operand": (
        "(p r (a) --> (write (compute\n ^x)))", "bad compute operand '^' (line 9)", 9),
    "after-a-shared-spelling": (
        "(p r2 (a ^x 1)\n   (b ^y <v>)\n -->\n   (make c ^v <v>) (frob))",
        "unknown action 'frob' (line 11)", 11),
    "end-of-input": (
        "(p r (a ^x 1)\n\n ; trailing comment\n",
        "unexpected end of input at line 8: unclosed form (line 8)", 8),
    "end-of-input-in-ce": (
        "(p r\n (a ^x\n\n",
        "unexpected end of input in condition element at line 9: unclosed form (line 8)", 8),
    "end-of-input-in-action": (
        "(p r (a) -->\n (make c ^x",
        "unexpected end of input at line 9: unclosed form (line 8)", 8),
    "end-of-input-after-shared-spelling": (
        "(p r2 (a ^x 1)\n   (b ^y <v>)",
        "unexpected end of input at line 9: unclosed form (line 8)", 8),
    "crlf": ("(p r (a)\r\n --> (frob))", "unknown action 'frob' (line 9)", 9),
}

#: name -> (whole source, message, line): errors at the stream's edges.
BARE = {
    "first-token": ("foo", "expected LPAREN, found SYMBOL 'foo' (line 1)", 1),
    "after-blank-lines": ("\n\n ^", "expected LPAREN, found HAT '^' (line 3)", 3),
    "unclosed-at-start": ("(", "unexpected end of input at line 1: unclosed form (line 1)", 1),
    "rparen-at-top": (")", "expected LPAREN, found RPAREN ')' (line 1)", 1),
}

#: (production count, sha256 of "name:line ...", line of the last).
BENCH_LINES = {
    "weaver-8x4": (
        lambda: weaver.source(grid=8, n_nets=4), 637,
        "826ea0ea60f43ee79e90032525a584a0c9e7a81121739c2766b610b51a0c486d", 5363),
    "rubik-16": (
        lambda: rubik.source(n_moves=16, seed=1), 70,
        "aed7e4b413068db2f275d299cf818993497d7abc1eca2f917e32ba161bef02d4", 1240),
    "tourney-26x40": (
        lambda: tourney.source(n_teams=26, n_rounds=40), 17,
        "6e77bc67c2ce547cf4e11977c5b1891e0f9a9ce10a24d46dbcae5ada515107f2", 133),
}


def _raised(source: str):
    with pytest.raises(ParseError) as info:
        parse_program(source)
    return str(info.value), info.value.line


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_parse_error_is_the_pinned_one(name):
    text, message, line = CASES[name]
    assert _raised(PRELUDE + text) == (message, line)


@pytest.mark.parametrize("name", sorted(BARE))
def test_errors_at_the_edges_of_the_stream(name):
    source, message, line = BARE[name]
    assert _raised(source) == (message, line)


def test_parse_production_wants_exactly_one():
    with pytest.raises(ParseError) as info:
        parse_production("(p a (x) --> (halt)) (p b (x) --> (halt))")
    assert (str(info.value), info.value.line) == ("expected exactly one production", 0)


@pytest.mark.parametrize("name", sorted(BENCH_LINES))
def test_production_lines_of_the_bench_inputs(name):
    make, count, digest, last = BENCH_LINES[name]
    prods = parse_program(make()).productions
    assert len(prods) == count
    assert prods[-1].line == last
    text = " ".join(f"{p.name}:{p.line}" for p in prods)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
