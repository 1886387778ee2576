"""Tokenizer for the OPS5 production-system language.

OPS5 source is a sequence of parenthesized forms.  The token inventory is
small: parentheses, the curly/angle grouping brackets ``{ }`` and
``<< >>``, the attribute operator ``^``, predicate operators
(``= <> < <= > >= <=>``), the arrow ``-->``, variables (``<name>``),
numbers, and symbolic atoms.

The only delicate part of lexing OPS5 is the overloading of ``<`` and
``>``:

* ``<x>`` (no internal whitespace) is a *variable*;
* ``<`` followed by whitespace or a non-variable continuation is the
  less-than predicate;
* ``<<`` and ``>>`` delimit disjunctions;
* ``<=`` / ``>=`` / ``<>`` / ``<=>`` are predicates.

Every one of those decisions is one ordered alternation, compiled once
(:data:`_SCANNER`): the first alternative that matches at a position
wins, so the order of the alternatives *is* the disambiguation —
variable before operator, ``<=>`` before ``<=`` and ``<>``, the
negated-CE minus and the number before the catch-all symbol.  A
construct that fails an earlier alternative is not an error, it falls
through to a later one: ``<abc`` is the predicate ``<`` followed by the
symbol ``abc``, and ``2>>`` (a number not followed by a delimiter) is
one symbol.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import Iterator, List, Union


class TokenType(Enum):
    """Kinds of lexical tokens produced by :func:`tokenize`."""

    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()         # {
    RBRACE = auto()         # }
    LDOUBLE = auto()        # <<
    RDOUBLE = auto()        # >>
    HAT = auto()            # ^
    ARROW = auto()          # -->
    MINUS = auto()          # - introducing a negated condition element
    PREDICATE = auto()      # = <> < <= > >= <=>
    VARIABLE = auto()       # <x>
    NUMBER = auto()         # 12, -4, 2.5
    SYMBOL = auto()         # any other atom


class Token:
    """A single lexical token with its source position."""

    __slots__ = ("type", "value", "line", "column")

    def __init__(
        self, type: TokenType, value: Union[str, int, float], line: int, column: int
    ) -> None:
        self.type = type
        self.value = value
        self.line = line
        self.column = column

    def _fields(self) -> tuple:
        return (self.type, self.value, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"


# The whole token grammar.  Every character is a blank, a delimiter or
# part of a symbol, so the alternation matches at every position and
# ``finditer`` skips nothing.  A group named after a TokenType yields
# that token.  A token takes the blanks behind it along (outside its
# group), which halves the number of matches on ordinary source.
_SCANNER = re.compile(
    r"""
    (?P<newline>\n)
  | (?P<blank>(?:[^\S\n]+|;[^\n]*)+)            # comments run to end of line
  | (?:
        (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<HAT>\^)
        # '<' name '>' with no whitespace, before '<' the predicate
      | <(?P<VARIABLE>[A-Za-z_][A-Za-z0-9_\-]*)>
        # longest first: '<<' '>>' before '<' '>', and '<=>' (same-type)
        # before '<=' and '<>'
      | (?P<LDOUBLE><<) | (?P<RDOUBLE>>>) | (?P<ARROW>-->)
      | (?P<PREDICATE><=>|<=|>=|<>|=|<|>)
        # a bare '-' before whitespace or '(' negates a condition
        # element; a minus starting a number is the next alternative's
      | (?P<MINUS>-(?=\s|\(|\Z))
        # a number must end at a delimiter: '2x' is a symbol
      | (?P<NUMBER>[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?=[\s(){};^]|\Z))
      | (?P<SYMBOL>[^\s(){}^;]+)
    ) [^\S\n]*
    """,
    re.VERBOSE,
)

_TYPES = {t.name: t for t in TokenType}


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list of :class:`Token`.

    Never raises: text that is not a variable, operator or number is a
    symbol (see the module docstring for ``<abc`` and ``2>>``).
    Comments run from ``;`` to end of line.
    """
    tokens: List[Token] = []
    append = tokens.append
    types = _TYPES
    line = 1
    line_start = 0
    for m in _SCANNER.finditer(source):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        value: Union[str, int, float] = m.group(kind)
        if kind == "NUMBER":
            value = float(value) if "." in value or "e" in value or "E" in value else int(value)
        append(Token(types[kind], value, line, m.start() - line_start + 1))
    return tokens


def iter_tokens(source: str) -> Iterator[Token]:
    """Iterate over the tokens of ``source`` (see :func:`tokenize`)."""
    return iter(tokenize(source))
