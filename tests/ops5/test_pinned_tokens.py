"""The token stream and the AST, pinned.

Every engine, cache and battery reaches the program through
``tokenize`` → ``parse_program``, so a lexer that resolves ``<x>`` /
``<`` / ``<<`` / ``<=`` one character differently, or a cursor that
skips a token, changes every result in the tree consistently — and no
differential test sees it.  ``pinned_tokens.json`` holds, for every
bundled program source, the eight conformance sizes and the three bench
inputs, the token count, the sha256 of the ``(type.name, value, line,
column)`` stream and the sha256 of ``repr(parse_program(source))``; and
2 000 seeded fuzz strings over the delimiter alphabet with their full
expected streams and parse outcomes inline.  It was generated at
``c693114``, *before* the lexer became one compiled alternation and the
cursor a sentinel-terminated list (PR 19), by the per-character
tokenizer.

Regenerate (only when the token grammar changes on purpose)::

    PYTHONPATH=src python -m tests.ops5.test_pinned_tokens > tests/ops5/pinned_tokens.json
"""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs
from repro.check import PROGRAMS as CONFORMANCE
from repro.ops5.errors import Ops5Error
from repro.ops5.lexer import TokenType, tokenize
from repro.ops5.parser import parse_program
from repro.programs import rubik, tourney, weaver

PINNED = Path(__file__).with_name("pinned_tokens.json")

ALPHABET = "(){}^;<>=-+ .\n\t123exE_ab\\/*"
FUZZ_SEED = 19
FUZZ_CASES = 2000
FUZZ_MAX_LEN = 12

SOURCES = {
    **{f"builtin-{name}": getattr(programs, name).source for name in programs.__all__},
    **{f"conformance-{name}": make for name, make in CONFORMANCE.items()},
    # bench/workloads.py SIZES at --seed 1, spelled out so that the pin
    # does not move when a bench size does.
    "bench-weaver-8x4": lambda: weaver.source(grid=8, n_nets=4),
    "bench-rubik-16": lambda: rubik.source(n_moves=16, seed=1),
    "bench-tourney-26x40": lambda: tourney.source(n_teams=26, n_rounds=40),
}


def stream(source: str) -> list:
    return [[t[0].name, t[1], t[2], t[3]] for t in tokenize(source)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe_source(source: str) -> dict:
    tokens = stream(source)
    return {
        "tokens": len(tokens),
        "stream_sha256": sha256("\n".join(repr(tuple(t)) for t in tokens)),
        "ast_sha256": sha256(repr(parse_program(source))),
    }


def parse_outcome(source: str):
    """``None`` for a program that parses, else the error's class and
    message up to its first position (PR 19 gave ``unexpected end of
    input`` the two lines it did not have when the pin was made)."""
    try:
        parse_program(source)
    except Ops5Error as exc:
        return f"{type(exc).__name__}: {re.split(r' (?:at |[(])line ', str(exc))[0]}"
    return None


def fuzz_strings() -> list:
    rng = random.Random(FUZZ_SEED)
    return [
        "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, FUZZ_MAX_LEN)))
        for _ in range(FUZZ_CASES)
    ]


def _pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_program_tokens_and_ast_are_the_pinned_ones(name):
    assert observe_source(SOURCES[name]()) == _pinned()["sources"][name]


def test_fuzz_streams_are_the_pinned_ones():
    cases = _pinned()["fuzz"]
    assert [c[0] for c in cases] == fuzz_strings()
    for text, expected, _ in cases:
        # repr, not ==: 1 and 1.0 are different tokens.
        assert repr(stream(text)) == repr(expected), text


def test_fuzz_parse_outcomes_are_the_pinned_ones():
    """Every fuzz string parses or raises an ``Ops5Error`` — the same
    one, message for message, as under the old cursor."""
    for text, _, expected in _pinned()["fuzz"]:
        assert parse_outcome(text) == expected, text


def test_a_token_is_a_plain_4_tuple():
    """``(type, value, line, column)``: the pinned stream's own layout,
    with ``type`` the ``TokenType`` member."""
    tok = tokenize("\n  <x>")[0]
    assert type(tok) is tuple
    assert tok == (TokenType.VARIABLE, "x", 2, 3)


# -- properties -----------------------------------------------------------

@settings(max_examples=300, deadline=None)
# (the delimiters a second time: they are what positions turn on)
@given(st.text(alphabet=ALPHABET + "<>()^ \n", max_size=40))
def test_positions_point_at_the_token(source):
    lines = source.split("\n")
    for tok in tokenize(source):
        rest = lines[tok[2] - 1][tok[3] - 1:]
        if tok[0] is TokenType.NUMBER:
            # 1e3, +2 and .5 are not spelled the way their values print.
            text = re.match(r"[^\s(){}^;]*", rest).group()
            assert repr(type(tok[1])(text)) == repr(tok[1])
        else:
            spelling = f"<{tok[1]}>" if tok[0] is TokenType.VARIABLE else tok[1]
            assert rest.startswith(spelling), (tok, rest)


_SPELLINGS = st.sampled_from(
    ["(", ")", "{", "}", "^", "<x>", "<a-b>", "<", "<=", "<=>", "<>", "<<", ">>", ">",
     ">=", "=", "-->", "-", "-3", "+2.5", "1e3", ".5", "2x", "abc", "a<b>", "<abc",
     "2>>", "//", "\\", "*"]
)
_BLANK = st.text(alphabet=" \t\n", min_size=1, max_size=3)
_COMMENT = st.builds(
    lambda text, tail: f";{text}\n{tail}",
    st.text(alphabet=ALPHABET.replace("\n", ""), max_size=8),
    st.text(alphabet=" \t\n", max_size=2),
)
_SEPARATOR = st.builds(
    lambda blank, comments: blank + "".join(comments), _BLANK, st.lists(_COMMENT, max_size=2)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SPELLINGS, _SEPARATOR), max_size=12), _SEPARATOR)
def test_comments_and_blank_runs_only_move_positions(pieces, lead):
    """Whatever blanks and comments separate the tokens, the stream is
    the one a single space gives — and each token sits where its
    spelling was written."""
    plain = " ".join(spelling for spelling, _ in pieces)
    dressed = lead
    offsets = []
    for spelling, sep in pieces:
        offsets.append(len(dressed))
        dressed += spelling + sep
    got = tokenize(dressed)
    assert [(t[0], t[1]) for t in got] == [(t[0], t[1]) for t in tokenize(plain)]
    line_starts = [0] + [i + 1 for i, ch in enumerate(dressed) if ch == "\n"]
    starts = [line_starts[t[2] - 1] + t[3] - 1 for t in got]
    # '<abc' is two tokens of one spelling: each start is inside the
    # piece it came from, in order.
    assert starts == sorted(starts)
    assert set(offsets) <= set(starts)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET + "<>()^ \n", max_size=40))
def test_a_repeated_text_repeats_its_stream_lines_later(text):
    """``t`` lexed as ``t + "\\n" + t`` gives ``t``'s stream twice, the
    second copy shifted by ``t``'s line count: the per-line memo hands
    each repeated line the tokens it gave the first time."""
    once = tokenize(text)
    shift = text.count("\n") + 1
    shifted = [(kind, value, line + shift, column) for kind, value, line, column in once]
    assert repr(tokenize(text + "\n" + text)) == repr(once + shifted)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET + "<>()^ \n", max_size=40))
def test_crlf_source_lexes_as_lf(text):
    got = tokenize(text.replace("\n", "\r\n"))
    assert repr([tok[:2] for tok in got]) == repr([tok[:2] for tok in tokenize(text)])


if __name__ == "__main__":
    # One fuzz case per line, so that a regenerated file diffs by case.
    head = json.dumps(
        {
            "generated_at": "c693114 -- by the per-character tokenizer and the "
                            "len()-checking cursor, before PR 19 touched either",
            "alphabet": ALPHABET,
            "sources": {name: observe_source(SOURCES[name]()) for name in sorted(SOURCES)},
        },
        indent=1,
    )
    cases = ",\n".join(
        json.dumps([text, stream(text), parse_outcome(text)], separators=(",", ":"))
        for text in fuzz_strings()
    )
    print(f'{head[:-2]},\n "fuzz": [\n{cases}\n]}}')

