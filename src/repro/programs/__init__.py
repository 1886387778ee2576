"""The paper's three benchmark programs — Weaver (637 rules), Rubik
(70 rules), Tourney (17 rules) — plus classic small OPS5 programs used
by the examples and tests, and two adversarial fixtures (crossfire,
negchain) built for the cross-engine conformance matrix.

A program's module is imported the first time it is named (``programs.rubik``,
``from repro.programs import rubik`` or :func:`read`), so running one
builtin does not import the others."""

from contextlib import contextmanager
from importlib import import_module

from ..ops5.errors import Ops5Error
from ..ops5.parser import parse_program

__all__ = [
    "blocks",
    "crossfire",
    "monkey",
    "negchain",
    "rubik",
    "tourney",
    "weaver",
]


def __getattr__(name: str):
    """The module of the builtin program ``name``, imported on demand."""
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def read(name_or_path: str) -> str:
    """Program text from a file path or, failing that, a builtin name —
    the one resolver behind every verb that takes a program."""
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        if name_or_path in __all__:
            return __getattr__(name_or_path).source()
        raise ValueError(
            f"cannot read {name_or_path}: {exc.strerror} (neither a file "
            f"nor a builtin program: {', '.join(__all__)})"
        ) from None


@contextmanager
def named_errors(label: str):
    """Report an :class:`~repro.ops5.errors.Ops5Error` raised while
    parsing or compiling the program ``label`` (a file or builtin) as a
    ``ValueError`` naming it — a message for the front door, not a
    traceback."""
    try:
        yield
    except Ops5Error as exc:
        raise ValueError(f"{label}: {exc}") from None


def load(name_or_path: str):
    """The parsed :class:`~repro.ops5.astnodes.Program` of a file or builtin."""
    source = read(name_or_path)
    with named_errors(name_or_path):
        return parse_program(source)
