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

``activate`` methods contain the pure match logic.  They read and write
memories through the context object and *return* the resulting child
tasks instead of recursing; :mod:`repro.rete.kernel` is their only
caller and hands the children to whichever engine is scheduling.

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
from .token import ADD, Token, fmt

Task = Tuple["BetaNode", str, int, Token]
#: A conflict-set change, as a terminal node appends it.
CSDelta = Tuple[Production, Token, int]


class MatchContext:
    """Everything node activation logic needs: memories, stats, CS sink.

    ``strict`` controls what a two-input node does when a ``-`` token
    finds no stored ``+`` twin: in the sequential matcher (in-order
    processing) that is a bug and raises; the parallel engines run with
    ``strict=False`` over a
    :class:`~repro.parallel.conjugate.ConjugateMemory`, whose
    extra-deletes lists (§3.2) the node then consults before every
    store and parks the early delete on.  ``keyed`` is the memory's
    hash-vs-linear choice, read once here instead of per activation.
    ``locks`` is None except under the threaded engine, which hangs its
    line locks here for the node's §3.2 modification bracket.
    """

    __slots__ = (
        "memory",
        "stats",
        "cs_deltas",
        "strict",
        "keyed",
        "tracing",
        "locks",
        "last_line",
        "last_slot",
        "last_opp_examined",
        "last_same_examined",
    )

    def __init__(self, memory, stats, strict: bool = True, tracing: bool = False) -> None:
        self.memory = memory
        self.stats = stats
        self.strict = strict
        self.keyed = memory.keyed
        self.tracing = tracing
        self.locks = None
        self.cs_deltas: List[CSDelta] = []
        # Per-activation probes, maintained only under `tracing`: the
        # kernel clears them before each activation, the node fills in
        # the examined counts and the bucket it filed under, the kernel
        # reads them.  `last_line` is the line the kernel entered under
        # `locks`, left here for the node to bracket.
        self.last_line = -1
        self.last_slot = None
        self.last_opp_examined = 0
        self.last_same_examined = 0


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

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.children: List[BetaNode] = []

    def activate(self, ctx: MatchContext, side: str, sign: int, token: Token) -> List[Task]:
        raise NotImplementedError

    def uses_line(self) -> bool:
        """Whether activations of this node touch a hash-table line."""
        return False


class TwoInputNode(BetaNode):
    """Coalesced memory + two-input node: one token at one node is one
    procedure call (§3.1), and :meth:`activate` is that call for join
    and not nodes alike.

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
        """The hash key ``token`` is filed under on ``side`` — the
        engines' line-routing helper (which line lock, which shard).
        ``activate`` computes the same key inline."""
        if side == LEFT:
            key_fn, arg = self.left_key_fn, token[0]
        else:
            key_fn, arg = self.right_key_fn, token[0][-1]
        return () if key_fn is None else key_fn(arg)

    def activate(self, ctx: MatchContext, side: str, sign: int, token: Token) -> List[Task]:
        """Key, store-or-delete, opposite search, output — in this one
        frame.  A join node stores the token itself and outputs it
        joined with every consistent opposite token; a not node stores
        each left token as the list ``[token, key, count]``, ``count``
        the number of consistent right WMEs, and a left token is live
        downstream iff its count is zero.  Index 1 is the key in a token
        and in an entry alike, so one delete scan serves both memories.
        Output tokens are built inline, as tuples: no frame per token.

        Under the threaded engine (``ctx.locks``, on the line the kernel
        entered and left in ``ctx.last_line``) the memory update runs
        inside the §3.2 modification lock and the search outside it; a
        not node mutates left-entry counts while it searches, so it
        holds the lock throughout.  No copy of the opposite bucket is
        taken: whatever guards the line keeps the other side's tokens
        out while this side searches.
        """
        memory = ctx.memory
        stats = ctx.stats
        node_id = self.node_id
        negated = self.negated
        wmes, token_key = token
        # `arg` is what the key function reads: the left token's WMEs,
        # or the right token's one WME; `counted` is a not node's left
        # token, the one stored with a count.
        if side == LEFT:
            key_fn, arg, counted = self.left_key_fn, wmes, negated
            same, opposite = memory.left, memory.right
        else:
            key_fn, arg, counted = self.right_key_fn, wmes[-1], False
            same, opposite = memory.right, memory.left
        # Hash buckets already guarantee the equality tests via the
        # key; the unkeyed (linear) layout must re-check everything.
        if not ctx.keyed:
            passes = self.all_tests_fn
            key = ()
        else:
            passes = self.tests_fn
            key = () if key_fn is None else key_fn(arg)
        slot = (node_id, key)
        stats.node_activations += 1
        if negated:
            stats.not_activations += 1
        locks = ctx.locks
        if locks is not None:
            line = ctx.last_line
            locks.enter_modify(line)
        elif ctx.tracing:
            ctx.last_slot = slot
        try:
            if sign == ADD:
                item = token
                if counted:
                    count = 0
                    rights = opposite.get(slot)
                    if rights:
                        stats.opp_examined_left += len(rights)
                        stats.opp_count_left += 1
                        if ctx.tracing:
                            ctx.last_opp_examined = len(rights)
                        for right in rights:
                            if passes is None or passes(wmes, right[0][0]):
                                count += 1
                    item = [token, token_key, count]
                if not ctx.strict and memory.before_insert(node_id, side, key, token_key):
                    # A parked early delete annihilated this add (§3.2).
                    return []
                bucket = same.get(slot)
                if bucket is None:
                    same[slot] = [item]
                else:
                    bucket.append(item)
            else:
                if not ctx.strict:
                    memory.before_remove(node_id, side, key)
                bucket = same.get(slot, ())
                item = None
                examined = 0
                for stored in bucket:
                    examined += 1
                    if stored[1] == token_key:
                        item = stored
                        del bucket[examined - 1]
                        if not bucket:
                            del same[slot]
                        break
                if examined:
                    if side == LEFT:
                        stats.same_del_examined_left += examined
                        stats.same_del_count_left += 1
                    else:
                        stats.same_del_examined_right += examined
                        stats.same_del_count_right += 1
                    if ctx.tracing:
                        ctx.last_same_examined = examined
                if item is None:
                    if ctx.strict:
                        raise RuntimeError(
                            f"delete of unknown token {fmt(token)} at {self.kind} node {node_id}"
                        )
                    memory.park(node_id, side, key, token_key)
                    return []
            if locks is not None and not negated:
                locks.exit_modify(line)
                locks = None

            children = self.children
            out = []
            if counted:
                if item[2]:
                    return out
                for child in children:
                    out.append((child, LEFT, sign, token))
            else:
                candidates = opposite.get(slot)
                if not candidates:
                    # The paper's convention: an empty opposite memory
                    # is left out of the Table 4-2 average.
                    return out
                if ctx.tracing:
                    ctx.last_opp_examined = len(candidates)
                if side == LEFT:
                    stats.opp_examined_left += len(candidates)
                    stats.opp_count_left += 1
                    for right in candidates:
                        w = right[0][0]
                        if passes is None or passes(wmes, w):
                            joined = (wmes + (w,), token_key + (w.timetag,))
                            for child in children:
                                out.append((child, LEFT, sign, joined))
                else:
                    stats.opp_examined_right += len(candidates)
                    stats.opp_count_right += 1
                    w = arg
                    if negated:
                        # A blocker arriving takes a count 0 -> 1 and
                        # retracts the left token; one leaving, 1 -> 0,
                        # re-asserts it.
                        edge = 1 if sign == ADD else 0
                        for entry in candidates:
                            left = entry[0]
                            if passes is None or passes(left[0], w):
                                entry[2] += sign
                                if entry[2] == edge:
                                    for child in children:
                                        out.append((child, LEFT, -sign, left))
                    else:
                        tail = (w,)
                        tag = (w.timetag,)
                        for left_wmes, left_key in candidates:
                            if passes is None or passes(left_wmes, w):
                                joined = (left_wmes + tail, left_key + tag)
                                for child in children:
                                    out.append((child, LEFT, sign, joined))
            stats.tokens_emitted += len(out)
            return out
        finally:
            if locks is not None:
                locks.exit_modify(line)


class JoinNode(TwoInputNode):
    """Coalesced memory + two-input node for a positive CE."""

    kind = "join"


class NotNode(TwoInputNode):
    """Coalesced memory + two-input node for a negated CE."""

    kind = "not"
    negated = True


class TerminalNode(BetaNode):
    """One per production: converts arriving tokens into conflict-set
    changes, each the tuple ``(production, token, sign)``."""

    kind = "term"

    def __init__(self, node_id: int, production: Production) -> None:
        super().__init__(node_id)
        self.production = production

    def activate(self, ctx: MatchContext, side: str, sign: int, token: Token) -> List[Task]:
        stats = ctx.stats
        stats.node_activations += 1
        stats.term_activations += 1
        stats.cs_changes += 1
        ctx.cs_deltas.append((self.production, token, sign))
        return []

