"""Rete network node types.

The four node kinds of the paper (§2.2), with memory nodes *coalesced*
into the two-input nodes below them (§3.1) — a node's left/right
memories live in the pluggable memory system, keyed by the node id, not
in separate memory-node objects:

* :class:`ConstantTestNode` — one-input nodes testing constant parts of
  a condition element (shared between productions);
* :class:`AlphaTerminal` — the exit of a constant-test chain, fanning a
  matching WME out to two-input node inputs;
* :class:`JoinNode` — coalesced memory + two-input node for a positive
  condition element;
* :class:`NotNode` — coalesced memory + two-input node for a *negated*
  condition element (keeps match counts on its left tokens);
* :class:`TerminalNode` — one per production; emits conflict-set deltas.

The nodes are data: ids, tests, key functions, children.  What one
activation does with them — key, store-or-delete, opposite search,
output, or a conflict-set change — is one iteration of the kernel's
loop (:func:`repro.rete.kernel.drain`), not a method here, so an
activation builds no Python frame of its own.

A *task* — the paper's schedulable unit of match work, a token arriving
at a node — is the plain tuple ``(node, side, sign, token)``: ``side``
is ``'L'``/``'R'`` for two-input nodes and ``'L'`` for terminals.  The
token is itself the tuple ``(wmes, key)`` (:mod:`repro.rete.token`), a
not node's stored left entry the list ``[token, key, count]``, and a
conflict-set change the tuple ``(production, token, sign)`` — so
scheduling a task, emitting a token and reporting a change each build
no Python frame.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..ops5.astnodes import Production
from ..ops5.wme import WME
from .memories import LEFT
from .token import Token

Task = Tuple["BetaNode", str, int, Token]
#: A conflict-set change, as a terminal node appends it.
CSDelta = Tuple[Production, Token, int]


class MatchContext:
    """Everything an activation needs besides its task: memories, stats,
    the conflict-set sink.

    ``strict`` controls what a two-input activation does when a ``-``
    token finds no stored ``+`` twin: in the sequential matcher
    (in-order processing) that is a bug and raises; the parallel engines
    run with ``strict=False`` over a
    :class:`~repro.parallel.conjugate.ConjugateMemory`, whose
    extra-deletes lists (§3.2) the kernel then consults before every
    store and parks the early delete on.  ``keyed`` is the memory's
    hash-vs-linear choice.  ``locks`` is None except under the threaded
    engine, which hangs its line locks here for the §3.2 line and
    modification brackets.  The kernel reads all of them once per
    drain.
    """

    __slots__ = ("memory", "stats", "cs_deltas", "strict", "keyed", "locks")

    def __init__(self, memory, stats, strict: bool = True) -> None:
        self.memory = memory
        self.stats = stats
        self.strict = strict
        self.keyed = memory.keyed
        self.locks = None
        self.cs_deltas: List[CSDelta] = []


# ---------------------------------------------------------------------------
# Alpha network
# ---------------------------------------------------------------------------


class ConstantTestNode:
    """A one-input node applying one constant/intra-element test."""

    __slots__ = ("node_id", "desc", "test", "children", "terminals")

    def __init__(self, node_id: int, desc: tuple, test: Callable[[WME], bool]) -> None:
        self.node_id = node_id
        self.desc = desc
        self.test = test
        self.children: List[ConstantTestNode] = []
        self.terminals: List[AlphaTerminal] = []


class AlphaTerminal:
    """End of a constant-test chain: routes matching WMEs to beta inputs.

    ``successors`` is a list of ``(node, side)`` pairs; ``side`` says
    whether the WME enters the two-input node's left input (only for the
    *first* CE of a production, whose alpha output feeds the left memory
    of the first two-input node directly, as in Figure 2-2) or its right
    input.
    """

    __slots__ = ("alpha_id", "successors")

    def __init__(self, alpha_id: int) -> None:
        self.alpha_id = alpha_id
        self.successors: List[Tuple["BetaNode", str]] = []


# ---------------------------------------------------------------------------
# Beta network
# ---------------------------------------------------------------------------


class BetaNode:
    """Common base for two-input and terminal nodes."""

    kind = "beta"
    #: A terminal's production; None on a two-input node, which is how
    #: the kernel tells the two apart.
    production: Optional[Production] = None

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.children: List[BetaNode] = []

    def uses_line(self) -> bool:
        """Whether activations of this node touch a hash-table line."""
        return False


class TwoInputNode(BetaNode):
    """Coalesced memory + two-input node (§3.1), join and not alike: the
    kernel runs one token at one of them as one iteration of its loop.

    ``tests`` holds the full descriptor list; ``eq_descs`` the subset of
    plain equality tests that form the hash key.  ``tests_fn`` evaluates
    the *residual* tests when hash memories pre-filter on the key, and
    ``all_tests_fn`` evaluates everything for linear memories.  Absent
    means ``None``: a node with no (residual) test joins every candidate
    without a call, one with no equality test files under ``()``
    without one.
    """

    #: Whether left tokens are stored as counted ``[token, key, count]``
    #: entries.
    negated = False

    def __init__(
        self,
        node_id: int,
        tests: Sequence[tuple],
        eq_descs: Sequence[tuple],
        tests_fn: Optional[Callable],
        all_tests_fn: Optional[Callable],
        left_key_fn: Optional[Callable],
        right_key_fn: Optional[Callable],
    ) -> None:
        super().__init__(node_id)
        self.tests = tuple(tests)
        self.eq_descs = tuple(eq_descs)
        self.tests_fn = tests_fn
        self.all_tests_fn = all_tests_fn
        self.left_key_fn = left_key_fn
        self.right_key_fn = right_key_fn

    def uses_line(self) -> bool:
        return True

    def key_for(self, side: str, token: Token) -> tuple:
        """The hash key ``token`` is filed under on ``side`` — the mp
        engine's routing helper (which shard owns the line).  The
        kernel computes the same key inline."""
        if side == LEFT:
            key_fn, arg = self.left_key_fn, token[0]
        else:
            key_fn, arg = self.right_key_fn, token[0][-1]
        return () if key_fn is None else key_fn(arg)


class JoinNode(TwoInputNode):
    """Coalesced memory + two-input node for a positive CE."""

    kind = "join"


class NotNode(TwoInputNode):
    """Coalesced memory + two-input node for a negated CE."""

    kind = "not"
    negated = True


class TerminalNode(BetaNode):
    """One per production: the kernel turns each token arriving here
    into a conflict-set change, the tuple ``(production, token, sign)``."""

    kind = "term"

    def __init__(self, node_id: int, production: Production) -> None:
        super().__init__(node_id)
        self.production = production
