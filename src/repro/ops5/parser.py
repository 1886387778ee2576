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

from bisect import bisect_right
from itertools import accumulate, chain
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

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
from .collector import collector_paused
from .errors import ParseError
from .lexer import Triple, TokenType, scan

_COMPUTE_OPS = ("+", "-", "*", "//", "\\")

T = TypeVar("T")


#: A token's character in the cursor's shape string: a form ends where
#: its parens balance.
_SHAPE = {kind: "." for kind in TokenType}
_SHAPE.update({TokenType.LPAREN: "(", TokenType.RPAREN: ")"})


class _TokenStream:
    """A cursor over the token list with one-token lookahead.

    A token is the triple ``(type, value, column)`` that the lexer's
    :func:`~repro.ops5.lexer.scan` gives each distinct line; the lists
    of every line, extended into one, end in a ``None`` sentinel, so
    looking at the current token is one index and the cursor never asks
    how long the list is; ``next`` refuses to step over the sentinel.
    No token carries its line: ``_ends[i]`` counts the tokens up to the
    end of line ``i + 1``, and :meth:`line` bisects it.

    The stream also holds the form memo of one ``parse_program`` call
    (see :meth:`built_once`); it dies with the stream.
    """

    __slots__ = ("_lines", "_tokens", "_ends", "_shape", "_pos", "form_line", "_built")

    def __init__(self, source: str) -> None:
        lines, per_line = scan(source)
        self._lines = lines
        self._tokens: List[Optional[Triple]] = list(chain.from_iterable(per_line))
        self._tokens.append(None)
        self._ends = list(accumulate(map(len, per_line)))
        # One character per token, each distinct line's made once.
        shapes = {
            text: "".join([_SHAPE[triple[0]] for triple in triples])
            for text, triples in dict(zip(lines, per_line)).items()
        }
        self._shape = "".join(map(shapes.__getitem__, lines))
        self._pos = 0
        #: Line of the ``(`` of the top-level form being parsed.
        self.form_line = 0
        self._built: Dict[tuple, object] = {}

    def line(self, back: int = 1) -> int:
        """The line of the token ``back`` places behind the cursor (by
        default the last one read)."""
        return bisect_right(self._ends, self._pos - back) + 1

    def peek(self) -> Optional[Triple]:
        return self._tokens[self._pos]

    def next(self) -> Triple:
        tok = self._tokens[self._pos]
        if tok is None:
            raise self.end_of_input()
        self._pos += 1
        return tok

    def expect(self, ttype: TokenType) -> Triple:
        tok = self._tokens[self._pos]
        if tok is None:
            raise self.end_of_input()
        self._pos += 1
        if tok[0] is not ttype:
            raise ParseError(
                f"expected {ttype.name}, found {tok[0].name} {tok[1]!r}", self.line()
            )
        return tok

    def at(self, ttype: TokenType) -> bool:
        tok = self._tokens[self._pos]
        return tok is not None and tok[0] is ttype

    def built_once(self, parse: Callable[..., T], *args) -> T:
        """``parse(self, *args)`` on the form at the cursor, once per spelling.

        A condition element or an action is one parenthesised form, and
        the same text recurs across productions.  The form's source
        text, from its ``(`` to its ``)``, with ``parse`` and ``args``,
        keys the memo: the same text lexes to the same tokens (``1``,
        ``1.0`` and ``-0.0`` are different texts, though ``==`` would
        not keep them apart), so it parses to the same AST, and AST
        nodes are frozen, so a repeat shares what the first spelling
        built.  Only a form that parsed cleanly to exactly its own
        ``)`` is stored, so an error is raised where and as it always
        was.
        """
        start = self._pos
        shape = self._shape
        end = start
        depth = 0
        try:
            # Each step counts the '('s up to the next ')', never
            # looking at a token twice; the form ends where they balance.
            while True:
                close = shape.index(")", end)
                depth += shape.count("(", end, close) - 1
                end = close + 1
                if depth <= 0:
                    break
        except ValueError:  # an unclosed form: parse it to its error
            return parse(self, *args)
        key = (parse, args, self._text(start, close))
        built = self._built.get(key)
        if built is None:
            built = parse(self, *args)
            if self._pos == end:
                self._built[key] = built
        else:
            self._pos = end
        return built  # type: ignore[return-value]

    def _text(self, first: int, last: int) -> str:
        """The source text from token ``first`` to the one-character
        token ``last``, both included."""
        ends = self._ends
        lines = self._lines
        tokens = self._tokens
        head = bisect_right(ends, first)
        begin = tokens[first][2] - 1  # type: ignore[index]
        stop = tokens[last][2]  # type: ignore[index]
        if last < ends[head]:
            return lines[head][begin:stop]
        tail = bisect_right(ends, last, head)
        return "\n".join([lines[head][begin:], *lines[head + 1:tail], lines[tail][:stop]])

    def end_of_input(self, where: str = "") -> ParseError:
        """The error for running out of tokens inside a top-level form
        (the only place it can happen): positioned at the form's ``(``,
        naming the line of the last token read."""
        return ParseError(
            f"unexpected end of input{where} at line {self.line()}: unclosed form",
            self.form_line,
        )


@collector_paused
def parse_program(source: str) -> Program:
    """Parse a complete OPS5 program from source text."""
    stream = _TokenStream(source)
    literalizes: List[Literalize] = []
    productions: List[Production] = []
    startup: List[Action] = []
    names = set()
    while stream.peek() is not None:
        stream.expect(TokenType.LPAREN)
        line = stream.form_line = stream.line()
        head = stream.next()
        if head[0] is not TokenType.SYMBOL:
            raise ParseError(f"expected form head, found {head[1]!r}", stream.line())
        if head[1] == "literalize":
            literalizes.append(_parse_literalize(stream))
        elif head[1] == "p":
            prod = _parse_production(stream, line)
            if prod.name in names:
                raise ParseError(f"duplicate production name {prod.name!r}", line)
            names.add(prod.name)
            productions.append(prod)
        elif head[1] == "startup":
            startup.extend(_parse_actions_until_rparen(stream))
        else:
            raise ParseError(f"unknown top-level form {head[1]!r}", stream.line())
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
    klass = stream.expect(TokenType.SYMBOL)[1]
    attrs: List[str] = []
    while not stream.at(TokenType.RPAREN):
        attrs.append(str(stream.expect(TokenType.SYMBOL)[1]))
    stream.expect(TokenType.RPAREN)
    return Literalize(klass=str(klass), attrs=tuple(attrs))


def _parse_production(stream: _TokenStream, line: int) -> Production:
    name_tok = stream.next()
    if name_tok[0] not in (TokenType.SYMBOL, TokenType.NUMBER):
        raise ParseError(f"bad production name {name_tok[1]!r}", stream.line())
    name = str(name_tok[1])

    ces: List[ConditionElement] = []
    while not stream.at(TokenType.ARROW):
        negated = False
        if stream.at(TokenType.MINUS):
            stream.next()
            negated = True
        ces.append(stream.built_once(_parse_condition_element, negated))
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
        if attr_tok[0] not in (TokenType.SYMBOL, TokenType.NUMBER):
            raise ParseError(f"bad attribute name {attr_tok[1]!r}", stream.line())
        value_test = _parse_value_test(stream)
        tests.append(AttrTest(attr=str(attr_tok[1]), test=value_test))
    stream.expect(TokenType.RPAREN)
    return ConditionElement(klass=str(klass_tok[1]), tests=tuple(tests), negated=negated)


def _parse_value_test(stream: _TokenStream):
    tok = stream.peek()
    if tok is None:
        raise stream.end_of_input(" in condition element")
    if tok[0] is TokenType.LBRACE:
        stream.next()
        subtests: List[Union[Test, Disjunction]] = []
        while not stream.at(TokenType.RBRACE):
            sub = _parse_simple_test(stream)
            subtests.append(sub)
        stream.expect(TokenType.RBRACE)
        if not subtests:
            raise ParseError("empty conjunction {}", stream.line(2))
        return Conjunction(tests=tuple(subtests))
    return _parse_simple_test(stream)


def _parse_simple_test(stream: _TokenStream) -> Union[Test, Disjunction]:
    tok = stream.next()
    if tok[0] is TokenType.LDOUBLE:
        values = []
        while not stream.at(TokenType.RDOUBLE):
            v = stream.next()
            if v[0] is TokenType.SYMBOL or v[0] is TokenType.NUMBER:
                values.append(v[1])
            else:
                raise ParseError(
                    f"disjunctions may contain only constants, found {v[1]!r}", stream.line()
                )
        stream.expect(TokenType.RDOUBLE)
        if not values:
            raise ParseError("empty disjunction << >>", stream.line(2))
        return Disjunction(values=tuple(values))
    if tok[0] is TokenType.PREDICATE:
        operand_tok = stream.next()
        operand = _operand_from(stream, operand_tok)
        return Test(op=str(tok[1]), operand=operand)
    if tok[0] is TokenType.VARIABLE:
        return Test(op="=", operand=Var(str(tok[1])))
    if tok[0] in (TokenType.SYMBOL, TokenType.NUMBER):
        return Test(op="=", operand=Lit(tok[1]))
    # A '-' token here is a negative number's sign that the lexer kept
    # separate only for the negated-CE case; treat as error.
    raise ParseError(f"bad value test starting with {tok[1]!r}", stream.line())


def _operand_from(stream: _TokenStream, tok: Triple):
    if tok[0] is TokenType.VARIABLE:
        return Var(str(tok[1]))
    if tok[0] in (TokenType.SYMBOL, TokenType.NUMBER):
        return Lit(tok[1])
    raise ParseError(f"bad predicate operand {tok[1]!r}", stream.line())


# ---------------------------------------------------------------------------
# RHS actions
# ---------------------------------------------------------------------------


def _parse_actions_until_rparen(stream: _TokenStream) -> List[Action]:
    actions: List[Action] = []
    while not stream.at(TokenType.RPAREN):
        actions.extend(stream.built_once(_parse_action))
    stream.expect(TokenType.RPAREN)
    return actions


def _parse_action(stream: _TokenStream) -> Tuple[Action, ...]:
    """One action form; ``(remove 1 3)`` is two actions."""
    stream.expect(TokenType.LPAREN)
    head = stream.expect(TokenType.SYMBOL)
    kind = str(head[1])
    if kind == "make":
        klass = str(stream.expect(TokenType.SYMBOL)[1])
        assigns = _parse_assigns(stream)
        stream.expect(TokenType.RPAREN)
        return (MakeAction(klass=klass, assigns=assigns),)
    if kind == "modify":
        idx_tok = stream.expect(TokenType.NUMBER)
        assigns = _parse_assigns(stream)
        stream.expect(TokenType.RPAREN)
        return (ModifyAction(ce_index=int(idx_tok[1]), assigns=assigns),)
    if kind == "remove":
        # OPS5 allows several CE numbers per remove: (remove 1 3).
        indices = [int(stream.expect(TokenType.NUMBER)[1])]
        while not stream.at(TokenType.RPAREN):
            indices.append(int(stream.expect(TokenType.NUMBER)[1]))
        stream.expect(TokenType.RPAREN)
        return tuple(RemoveAction(ce_index=i) for i in indices)
    if kind == "write":
        values: List[RhsValue] = []
        while not stream.at(TokenType.RPAREN):
            values.append(_parse_rhs_value(stream))
        stream.expect(TokenType.RPAREN)
        return (WriteAction(values=tuple(values)),)
    if kind == "bind":
        var_tok = stream.expect(TokenType.VARIABLE)
        value = _parse_rhs_value(stream)
        stream.expect(TokenType.RPAREN)
        return (BindAction(var=str(var_tok[1]), value=value),)
    if kind == "halt":
        stream.expect(TokenType.RPAREN)
        return (HaltAction(),)
    raise ParseError(f"unknown action {kind!r}", stream.line())


def _parse_assigns(stream: _TokenStream) -> Tuple[Tuple[str, RhsValue], ...]:
    assigns: List[Tuple[str, RhsValue]] = []
    while stream.at(TokenType.HAT):
        stream.next()
        attr_tok = stream.next()
        if attr_tok[0] not in (TokenType.SYMBOL, TokenType.NUMBER):
            raise ParseError(f"bad attribute name {attr_tok[1]!r}", stream.line())
        value = _parse_rhs_value(stream)
        assigns.append((str(attr_tok[1]), value))
    return tuple(assigns)


def _parse_rhs_value(stream: _TokenStream) -> RhsValue:
    tok = stream.next()
    if tok[0] is TokenType.VARIABLE:
        return RhsVar(str(tok[1]))
    if tok[0] in (TokenType.SYMBOL, TokenType.NUMBER):
        return RhsConst(tok[1])
    if tok[0] is TokenType.LPAREN:
        head = stream.next()
        if head[0] is TokenType.SYMBOL and head[1] == "compute":
            return _parse_compute(stream, stream.line())
        if head[0] is TokenType.SYMBOL and head[1] == "accept":
            stream.expect(TokenType.RPAREN)
            return RhsAccept()
        raise ParseError(f"unknown RHS function {head[1]!r}", stream.line())
    raise ParseError(f"bad RHS value {tok[1]!r}", stream.line())


def _parse_compute(stream: _TokenStream, line: int) -> RhsCompute:
    operands: List[RhsValue] = [_parse_compute_operand(stream)]
    ops: List[str] = []
    while not stream.at(TokenType.RPAREN):
        op_tok = stream.next()
        op = str(op_tok[1])
        # '-' between operands lexes as MINUS when followed by whitespace.
        if op_tok[0] is TokenType.MINUS:
            op = "-"
        if op not in _COMPUTE_OPS:
            raise ParseError(f"unknown compute operator {op!r}", stream.line())
        ops.append(op)
        operands.append(_parse_compute_operand(stream))
    stream.expect(TokenType.RPAREN)
    if not ops:
        raise ParseError("compute needs at least one operator", line)
    return RhsCompute(operands=tuple(operands), ops=tuple(ops))


def _parse_compute_operand(stream: _TokenStream) -> RhsValue:
    tok = stream.peek()
    if tok is not None and tok[0] is TokenType.LPAREN:
        return _parse_rhs_value(stream)
    tok = stream.next()
    if tok[0] is TokenType.VARIABLE:
        return RhsVar(str(tok[1]))
    if tok[0] in (TokenType.SYMBOL, TokenType.NUMBER):
        return RhsConst(tok[1])
    raise ParseError(f"bad compute operand {tok[1]!r}", stream.line())
