"""Tokens — the objects that flow through the Rete network.

A token is a tag (``+`` add / ``-`` delete) plus an ordered list of WMEs
matching a prefix of a production's *positive* condition elements.  As
in the paper, a beta token is identified by the sequence of timetags of
its WMEs: a ``-`` token deletes the stored ``+`` token with the same
timetag sequence at the same node.
"""

from __future__ import annotations

from typing import Tuple

from ..ops5.wme import WME

ADD = 1
DELETE = -1


class Token:
    """An ordered list of WMEs (the tag travels separately as ``sign``).

    ``key`` — the tuple of timetags — is what memories use to locate a
    token for deletion; it is precomputed because it is consulted on
    every memory operation.  A slotted class with a plain ``__init__``:
    the match loop builds one per output token.  Treat instances as
    immutable — equality and hashing are by value, and the conflict set
    keys on them.
    """

    __slots__ = ("wmes", "key")

    def __init__(self, wmes: Tuple[WME, ...], key: Tuple[int, ...]) -> None:
        self.wmes = wmes
        self.key = key

    @staticmethod
    def of(wmes: Tuple[WME, ...]) -> "Token":
        return Token(wmes, tuple(w.timetag for w in wmes))

    @staticmethod
    def single(wme: WME) -> "Token":
        return Token((wme,), (wme.timetag,))

    def extend(self, wme: WME) -> "Token":
        return Token(self.wmes + (wme,), self.key + (wme.timetag,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self.key == other.key and self.wmes == other.wmes

    def __hash__(self) -> int:
        return hash((self.wmes, self.key))

    def __repr__(self) -> str:
        return f"Token(wmes={self.wmes!r}, key={self.key!r})"

    def __len__(self) -> int:
        return len(self.wmes)

    def __str__(self) -> str:
        return "[" + " ".join(str(w.timetag) for w in self.wmes) + "]"


#: The empty token that seeds the left input of a first two-input node
#: when a production's first CE is negated is never needed in this
#: implementation (grammar forbids a leading negated CE), but single-CE
#: productions still flow 1-WME tokens to their terminal node.
EMPTY = Token((), ())
