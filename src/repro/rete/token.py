"""Tokens — the records that flow through the Rete network.

A token is the plain tuple ``(wmes, key)``: ``wmes`` the WMEs matching a
prefix of a production's *positive* condition elements, in CE order,
and ``key`` the tuple of their timetags.  The tag (``+`` add / ``-``
delete) travels separately, as a task's ``sign``.  As in the paper, a
beta token is identified by its timetag sequence: a ``-`` token deletes
the stored ``+`` token with the same key at the same node, so a delete
scan compares ``stored[1] == key`` — never the WMEs, whose generated
dataclass ``__eq__`` would cost a Python frame per comparison.

A tuple and not a class because the match loop builds one per output
token: ``(wmes + (w,), key + (w.timetag,))``, written inline, builds no
frame.  :func:`of` and :func:`fmt` are for cold paths.
"""

from __future__ import annotations

from typing import Tuple

from ..ops5.wme import WME

ADD = 1
DELETE = -1

Token = Tuple[Tuple[WME, ...], Tuple[int, ...]]

#: The token of no WMEs: the ``startup`` pseudo-instantiation fires on it.
EMPTY: Token = ((), ())


def of(wmes: Tuple[WME, ...]) -> Token:
    """The token of ``wmes``, its key computed."""
    return (wmes, tuple(w.timetag for w in wmes))


def fmt(token: Token) -> str:
    """``[3 7]``: a token's timetags, the way errors print a token."""
    return "[" + " ".join(map(str, token[1])) + "]"
