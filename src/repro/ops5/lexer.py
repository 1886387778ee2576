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
from typing import List, Optional, Tuple, Union


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

    # Enum's own ``__hash__`` is a Python frame that hashes the name;
    # the parser's memo keys hash a tuple of kinds per form.  Members
    # are singletons compared by identity, so the identity hash is C's.
    __hash__ = object.__hash__


#: A lexical token: ``(type, value, line, column)``, ``type`` a
#: :class:`TokenType`, line and column counted from 1.
Token = Tuple[TokenType, Union[str, int, float], int, int]


# The whole token grammar of one line (no token spans a line, so
# :func:`tokenize` scans each line on its own).  Every character is a
# blank, a delimiter or part of a symbol, so the alternation matches at
# every position and ``finditer`` skips nothing.  A group named after a
# TokenType yields that token.  A token takes the blanks behind it along
# (outside its group), which halves the number of matches on ordinary
# source.  ``\Z`` is the end of the line: where a minus or a number
# must be followed by a blank, the end of its line counts as one.
_SCANNER = re.compile(
    r"""
    (?P<blank>(?:\s+|;.*)+)                     # comments run to end of line
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
    ) \s*
    """,
    re.VERBOSE,
)

#: ``m.lastindex`` -> the TokenType its group yields (``None``: a blank).
_KINDS: List[Optional[TokenType]] = [None] * (_SCANNER.groups + 1)
for _name, _index in _SCANNER.groupindex.items():
    _KINDS[_index] = TokenType.__members__.get(_name)
del _name, _index


def _scan_line(text: str) -> List[Tuple[TokenType, Union[str, int, float], int]]:
    """The ``(type, value, column)`` of every token on one line."""
    out = []
    append = out.append
    kinds = _KINDS
    number = TokenType.NUMBER
    for m in _SCANNER.finditer(text):
        index = m.lastindex
        kind = kinds[index]
        if kind is None:
            continue
        value: Union[str, int, float] = m.group(index)
        if kind is number:
            value = float(value) if "." in value or "e" in value or "E" in value else int(value)
        append((kind, value, m.start() + 1))
    return out


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list of :data:`Token` tuples.

    Never raises: text that is not a variable, operator or number is a
    symbol (see the module docstring for ``<abc`` and ``2>>``).
    Comments run from ``;`` to end of line.  A line that occurs more
    than once is scanned once per call: the memo is a local, so nothing
    outlives the call that filled it.
    """
    tokens: List[Token] = []
    append = tokens.append
    scanned = {}
    line = 0
    for text in source.split("\n"):
        line += 1
        triples = scanned.get(text)
        if triples is None:
            triples = scanned[text] = _scan_line(text)
        for kind, value, column in triples:
            append((kind, value, line, column))
    return tokens
