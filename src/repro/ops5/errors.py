"""Exception hierarchy for the OPS5 implementation.

All errors raised by the lexer, parser, compiler and interpreter derive
from :class:`Ops5Error` so callers can catch one type.
"""

from __future__ import annotations


class Ops5Error(Exception):
    """Base class for every error raised by :mod:`repro.ops5`."""


class LexError(Ops5Error):
    """An invalid character sequence.  Kept for API compatibility:
    nothing raises it, the scanner has a token for every character."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(Ops5Error):
    """Raised when the parser encounters a malformed program."""

    def __init__(self, message: str, line: int = 0) -> None:
        if line:
            super().__init__(f"{message} (line {line})")
        else:
            super().__init__(message)
        self.line = line


class CompileError(Ops5Error):
    """Raised when a production cannot be compiled into the Rete network."""


class RuntimeOps5Error(Ops5Error):
    """Raised for errors during the recognize-act cycle (bad RHS etc.)."""
