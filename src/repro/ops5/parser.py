"""Recursive-descent parser for OPS5 programs.

Top-level forms::

    (literalize class attr1 attr2 ...)
    (p name  <ce>+  -->  <action>* )
    (startup <action>*)

Condition elements::

    [ - ] ( class  { ^attr <value-test> }* )

See :mod:`repro.ops5.astnodes` for the value-test grammar.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .astnodes import (
    Action,
    AttrTest,
    BindAction,
    ConditionElement,
    Conjunction,
    Disjunction,
    HaltAction,
    Lit,
    Literalize,
    MakeAction,
    ModifyAction,
    Production,
    Program,
    RemoveAction,
    RhsCompute,
    RhsConst,
    RhsAccept,
    RhsValue,
    RhsVar,
    Test,
    Var,
    WriteAction,
)
from .errors import ParseError
from .lexer import Token, TokenType, tokenize

_COMPUTE_OPS = ("+", "-", "*", "//", "\\")


class _TokenStream:
    """A cursor over the token list with one-token lookahead.

    The list ends in a ``None`` sentinel, so looking at the current
    token is one index and the cursor never asks how long the list is;
    ``next`` refuses to step over the sentinel.
    """

    __slots__ = ("_tokens", "_pos", "form_line")

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens: List[Optional[Token]] = [*tokens, None]
        self._pos = 0
        #: Line of the ``(`` of the top-level form being parsed.
        self.form_line = 0

    def peek(self) -> Optional[Token]:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok is None:
            raise self.end_of_input()
        self._pos += 1
        return tok

    def expect(self, ttype: TokenType) -> Token:
        tok = self._tokens[self._pos]
        if tok is None:
            raise self.end_of_input()
        self._pos += 1
        if tok.type is not ttype:
            raise ParseError(
                f"expected {ttype.name}, found {tok.type.name} {tok.value!r}", tok.line
            )
        return tok

    def at(self, ttype: TokenType) -> bool:
        tok = self._tokens[self._pos]
        return tok is not None and tok.type is ttype

    def end_of_input(self, where: str = "") -> ParseError:
        """The error for running out of tokens inside a top-level form
        (the only place it can happen): positioned at the form's ``(``,
        naming the line of the last token read."""
        last = self._tokens[self._pos - 1]
        return ParseError(
            f"unexpected end of input{where} at line {last.line}: unclosed form",
            self.form_line,
        )


def parse_program(source: str) -> Program:
    """Parse a complete OPS5 program from source text."""
    stream = _TokenStream(tokenize(source))
    literalizes: List[Literalize] = []
    productions: List[Production] = []
    startup: List[Action] = []
    names = set()
    while stream.peek() is not None:
        tok = stream.expect(TokenType.LPAREN)
        stream.form_line = tok.line
        head = stream.next()
        if head.type is not TokenType.SYMBOL:
            raise ParseError(f"expected form head, found {head.value!r}", head.line)
        if head.value == "literalize":
            literalizes.append(_parse_literalize(stream))
        elif head.value == "p":
            prod = _parse_production(stream, tok.line)
            if prod.name in names:
                raise ParseError(f"duplicate production name {prod.name!r}", tok.line)
            names.add(prod.name)
            productions.append(prod)
        elif head.value == "startup":
            startup.extend(_parse_actions_until_rparen(stream))
        else:
            raise ParseError(f"unknown top-level form {head.value!r}", head.line)
    return Program(
        literalizes=tuple(literalizes),
        productions=tuple(productions),
        startup=tuple(startup),
    )


def parse_production(source: str) -> Production:
    """Parse a single ``(p ...)`` form — convenience for tests/examples."""
    program = parse_program(source)
    if len(program.productions) != 1:
        raise ParseError("expected exactly one production")
    return program.productions[0]


def _parse_literalize(stream: _TokenStream) -> Literalize:
    klass = stream.expect(TokenType.SYMBOL).value
    attrs: List[str] = []
    while not stream.at(TokenType.RPAREN):
        attrs.append(str(stream.expect(TokenType.SYMBOL).value))
    stream.expect(TokenType.RPAREN)
    return Literalize(klass=str(klass), attrs=tuple(attrs))


def _parse_production(stream: _TokenStream, line: int) -> Production:
    name_tok = stream.next()
    if name_tok.type not in (TokenType.SYMBOL, TokenType.NUMBER):
        raise ParseError(f"bad production name {name_tok.value!r}", name_tok.line)
    name = str(name_tok.value)

    ces: List[ConditionElement] = []
    while not stream.at(TokenType.ARROW):
        negated = False
        if stream.at(TokenType.MINUS):
            stream.next()
            negated = True
        ces.append(_parse_condition_element(stream, negated))
    stream.expect(TokenType.ARROW)

    actions = _parse_actions_until_rparen(stream)
    try:
        return Production(name=name, ces=tuple(ces), actions=tuple(actions), line=line)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def _parse_condition_element(stream: _TokenStream, negated: bool) -> ConditionElement:
    stream.expect(TokenType.LPAREN)
    klass_tok = stream.expect(TokenType.SYMBOL)
    tests: List[AttrTest] = []
    while not stream.at(TokenType.RPAREN):
        stream.expect(TokenType.HAT)
        attr_tok = stream.next()
        if attr_tok.type not in (TokenType.SYMBOL, TokenType.NUMBER):
            raise ParseError(f"bad attribute name {attr_tok.value!r}", attr_tok.line)
        value_test = _parse_value_test(stream)
        tests.append(AttrTest(attr=str(attr_tok.value), test=value_test))
    stream.expect(TokenType.RPAREN)
    return ConditionElement(klass=str(klass_tok.value), tests=tuple(tests), negated=negated)


def _parse_value_test(stream: _TokenStream):
    tok = stream.peek()
    if tok is None:
        raise stream.end_of_input(" in condition element")
    if tok.type is TokenType.LBRACE:
        stream.next()
        subtests: List[Union[Test, Disjunction]] = []
        while not stream.at(TokenType.RBRACE):
            sub = _parse_simple_test(stream)
            subtests.append(sub)
        stream.expect(TokenType.RBRACE)
        if not subtests:
            raise ParseError("empty conjunction {}", tok.line)
        return Conjunction(tests=tuple(subtests))
    return _parse_simple_test(stream)


def _parse_simple_test(stream: _TokenStream) -> Union[Test, Disjunction]:
    tok = stream.next()
    if tok.type is TokenType.LDOUBLE:
        values = []
        while not stream.at(TokenType.RDOUBLE):
            v = stream.next()
            if v.type is TokenType.SYMBOL or v.type is TokenType.NUMBER:
                values.append(v.value)
            else:
                raise ParseError(
                    f"disjunctions may contain only constants, found {v.value!r}", v.line
                )
        stream.expect(TokenType.RDOUBLE)
        if not values:
            raise ParseError("empty disjunction << >>", tok.line)
        return Disjunction(values=tuple(values))
    if tok.type is TokenType.PREDICATE:
        operand_tok = stream.next()
        operand = _operand_from(operand_tok)
        return Test(op=str(tok.value), operand=operand)
    if tok.type is TokenType.VARIABLE:
        return Test(op="=", operand=Var(str(tok.value)))
    if tok.type in (TokenType.SYMBOL, TokenType.NUMBER):
        return Test(op="=", operand=Lit(tok.value))
    # A '-' token here is a negative number's sign that the lexer kept
    # separate only for the negated-CE case; treat as error.
    raise ParseError(f"bad value test starting with {tok.value!r}", tok.line)


def _operand_from(tok: Token):
    if tok.type is TokenType.VARIABLE:
        return Var(str(tok.value))
    if tok.type in (TokenType.SYMBOL, TokenType.NUMBER):
        return Lit(tok.value)
    raise ParseError(f"bad predicate operand {tok.value!r}", tok.line)


# ---------------------------------------------------------------------------
# RHS actions
# ---------------------------------------------------------------------------


def _parse_actions_until_rparen(stream: _TokenStream) -> List[Action]:
    actions: List[Action] = []
    while not stream.at(TokenType.RPAREN):
        actions.extend(_parse_action(stream))
    stream.expect(TokenType.RPAREN)
    return actions


def _parse_action(stream: _TokenStream) -> List[Action]:
    stream.expect(TokenType.LPAREN)
    head = stream.expect(TokenType.SYMBOL)
    kind = str(head.value)
    if kind == "make":
        klass = str(stream.expect(TokenType.SYMBOL).value)
        assigns = _parse_assigns(stream)
        stream.expect(TokenType.RPAREN)
        return [MakeAction(klass=klass, assigns=assigns)]
    if kind == "modify":
        idx_tok = stream.expect(TokenType.NUMBER)
        assigns = _parse_assigns(stream)
        stream.expect(TokenType.RPAREN)
        return [ModifyAction(ce_index=int(idx_tok.value), assigns=assigns)]
    if kind == "remove":
        # OPS5 allows several CE numbers per remove: (remove 1 3).
        indices = [int(stream.expect(TokenType.NUMBER).value)]
        while not stream.at(TokenType.RPAREN):
            indices.append(int(stream.expect(TokenType.NUMBER).value))
        stream.expect(TokenType.RPAREN)
        return [RemoveAction(ce_index=i) for i in indices]
    if kind == "write":
        values: List[RhsValue] = []
        while not stream.at(TokenType.RPAREN):
            values.append(_parse_rhs_value(stream))
        stream.expect(TokenType.RPAREN)
        return [WriteAction(values=tuple(values))]
    if kind == "bind":
        var_tok = stream.expect(TokenType.VARIABLE)
        value = _parse_rhs_value(stream)
        stream.expect(TokenType.RPAREN)
        return [BindAction(var=str(var_tok.value), value=value)]
    if kind == "halt":
        stream.expect(TokenType.RPAREN)
        return [HaltAction()]
    raise ParseError(f"unknown action {kind!r}", head.line)


def _parse_assigns(stream: _TokenStream) -> Tuple[Tuple[str, RhsValue], ...]:
    assigns: List[Tuple[str, RhsValue]] = []
    while stream.at(TokenType.HAT):
        stream.next()
        attr_tok = stream.next()
        if attr_tok.type not in (TokenType.SYMBOL, TokenType.NUMBER):
            raise ParseError(f"bad attribute name {attr_tok.value!r}", attr_tok.line)
        value = _parse_rhs_value(stream)
        assigns.append((str(attr_tok.value), value))
    return tuple(assigns)


def _parse_rhs_value(stream: _TokenStream) -> RhsValue:
    tok = stream.next()
    if tok.type is TokenType.VARIABLE:
        return RhsVar(str(tok.value))
    if tok.type in (TokenType.SYMBOL, TokenType.NUMBER):
        return RhsConst(tok.value)
    if tok.type is TokenType.LPAREN:
        head = stream.next()
        if head.type is TokenType.SYMBOL and head.value == "compute":
            return _parse_compute(stream, head.line)
        if head.type is TokenType.SYMBOL and head.value == "accept":
            stream.expect(TokenType.RPAREN)
            return RhsAccept()
        raise ParseError(f"unknown RHS function {head.value!r}", head.line)
    raise ParseError(f"bad RHS value {tok.value!r}", tok.line)


def _parse_compute(stream: _TokenStream, line: int) -> RhsCompute:
    operands: List[RhsValue] = [_parse_compute_operand(stream)]
    ops: List[str] = []
    while not stream.at(TokenType.RPAREN):
        op_tok = stream.next()
        op = str(op_tok.value)
        # '-' between operands lexes as MINUS when followed by whitespace.
        if op_tok.type is TokenType.MINUS:
            op = "-"
        if op not in _COMPUTE_OPS:
            raise ParseError(f"unknown compute operator {op!r}", op_tok.line)
        ops.append(op)
        operands.append(_parse_compute_operand(stream))
    stream.expect(TokenType.RPAREN)
    if not ops:
        raise ParseError("compute needs at least one operator", line)
    return RhsCompute(operands=tuple(operands), ops=tuple(ops))


def _parse_compute_operand(stream: _TokenStream) -> RhsValue:
    tok = stream.peek()
    if tok is not None and tok.type is TokenType.LPAREN:
        return _parse_rhs_value(stream)
    tok = stream.next()
    if tok.type is TokenType.VARIABLE:
        return RhsVar(str(tok.value))
    if tok.type in (TokenType.SYMBOL, TokenType.NUMBER):
        return RhsConst(tok.value)
    raise ParseError(f"bad compute operand {tok.value!r}", tok.line)
