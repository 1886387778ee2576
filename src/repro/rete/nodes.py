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
activations instead of recursing; :mod:`repro.rete.kernel` is their
only caller and hands the children to whichever engine is scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..ops5.astnodes import Production
from ..ops5.wme import WME
from .memories import LEFT, NotEntry
from .token import ADD, Token


class Activation:
    """One schedulable unit of match work: a token arriving at a node.

    This is the paper's *task*.  ``side`` is ``'L'``/``'R'`` for
    two-input nodes and ``'L'`` for terminals.  ``parent`` is the tid of
    the task whose output spawned this one; the kernel assigns it only
    while a :class:`~repro.rete.trace.TraceRecorder` is attached.
    """

    __slots__ = ("node", "side", "sign", "token", "parent")

    def __init__(self, node: "BetaNode", side: str, sign: int, token: Token) -> None:
        self.node = node
        self.side = side
        self.sign = sign
        self.token = token
        self.parent = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = "+" if self.sign == ADD else "-"
        return f"<{self.node.kind}#{self.node.node_id} {self.side} {s}{self.token}>"


@dataclass
class CSDelta:
    """A conflict-set change produced by a terminal node."""

    production: Production
    token: Token
    sign: int


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
    """

    __slots__ = (
        "memory",
        "stats",
        "cs_deltas",
        "strict",
        "keyed",
        "tracing",
        "last_line",
        "last_opp_examined",
        "last_same_examined",
    )

    def __init__(self, memory, stats, strict: bool = True, tracing: bool = False) -> None:
        self.memory = memory
        self.stats = stats
        self.strict = strict
        self.keyed = memory.keyed
        self.tracing = tracing
        self.cs_deltas: List[CSDelta] = []
        # Per-activation probes, maintained only under `tracing`: the
        # kernel zeroes the examined counts before each activation, the
        # node fills them (and its line) in, the kernel reads them.
        self.last_line = -1
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

    def activate(self, ctx: MatchContext, act: Activation) -> List[Activation]:
        raise NotImplementedError

    def uses_line(self) -> bool:
        """Whether activations of this node touch a hash-table line."""
        return False


class TwoInputNode(BetaNode):
    """Coalesced memory + two-input node: what join and not nodes share.

    ``tests`` holds the full descriptor list; ``eq_descs`` the subset of
    plain equality tests that form the hash key.  ``tests_fn`` evaluates
    the *residual* tests when hash memories pre-filter on the key, and
    ``all_tests_fn`` evaluates everything for linear memories.
    """

    def __init__(
        self,
        node_id: int,
        tests: Sequence[tuple],
        eq_descs: Sequence[tuple],
        tests_fn: Callable,
        all_tests_fn: Callable,
        left_key_fn: Callable,
        right_key_fn: Callable,
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
            return self.left_key_fn(token.wmes)
        return self.right_key_fn(token.wmes[-1])

    def update_memory(self, ctx: MatchContext, act: Activation, key: tuple, item=None):
        """Phase 1 (under the modification lock in the parallel engine):
        store ``item`` (default: the token itself) in, or delete the
        token's stored twin from, this node's same-side bucket for
        ``key``.  Returns the item stored or deleted — or None when the
        activation must stop: a conjugate pair annihilated, or an early
        delete was parked (a strict context raises instead)."""
        stats = ctx.stats
        stats.node_activations += 1
        memory = ctx.memory
        node_id = self.node_id
        side = act.side
        token_key = act.token.key
        if ctx.tracing:
            ctx.last_line = memory.line_of(node_id, key)
        table = memory.left if side == LEFT else memory.right
        slot = (node_id, key)

        if act.sign == ADD:
            if not ctx.strict and memory.before_insert(node_id, side, key, token_key):
                return None
            if item is None:
                item = act.token
            bucket = table.get(slot)
            if bucket is None:
                table[slot] = [item]
            else:
                bucket.append(item)
            return item

        if not ctx.strict:
            memory.before_remove(node_id, side, key)
        bucket = table.get(slot, ())
        found = None
        examined = 0
        for stored in bucket:
            examined += 1
            if stored.key == token_key:
                found = stored
                del bucket[examined - 1]
                if not bucket:
                    del table[slot]
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
        if found is None:
            if ctx.strict:
                raise RuntimeError(
                    f"delete of unknown token {act.token} at {self.kind} node {node_id}"
                )
            memory.park(node_id, side, key, token_key)
        return found


class JoinNode(TwoInputNode):
    """Coalesced memory + two-input node for a positive CE."""

    kind = "join"

    def activate(self, ctx: MatchContext, act: Activation) -> List[Activation]:
        if not ctx.keyed:
            key = ()
        elif act.side == LEFT:
            key = self.left_key_fn(act.token.wmes)
        else:
            key = self.right_key_fn(act.token.wmes[-1])
        if self.update_memory(ctx, act, key) is None:
            return []
        return self.search_opposite(ctx, act, key)

    def search_opposite(self, ctx: MatchContext, act: Activation, key: tuple) -> List[Activation]:
        """Phase 2 (outside the modification lock): scan the opposite
        bucket for consistent tokens and build child activations.  No
        copy of the bucket is taken: whatever guards the line keeps the
        other side's tokens out while this side searches."""
        memory = ctx.memory
        side = act.side
        opposite = (memory.right if side == LEFT else memory.left).get((self.node_id, key))
        if not opposite:
            # The paper's convention: an empty opposite memory is left
            # out of the Table 4-2 average.
            return []
        stats = ctx.stats
        examined = len(opposite)
        if ctx.tracing:
            ctx.last_opp_examined = examined
        # Hash buckets already guarantee the equality tests via the
        # key; the unkeyed (linear) layout must re-check everything.
        passes = self.tests_fn if ctx.keyed else self.all_tests_fn
        token = act.token
        sign = act.sign
        children = self.children
        out: List[Activation] = []
        if side == LEFT:
            stats.opp_examined_left += examined
            stats.opp_count_left += 1
            wmes = token.wmes
            token_key = token.key
            for item in opposite:
                w = item.wmes[0]
                if passes(wmes, w):
                    joined = Token(wmes + (w,), token_key + (w.timetag,))
                    for child in children:
                        out.append(Activation(child, LEFT, sign, joined))
        else:
            stats.opp_examined_right += examined
            stats.opp_count_right += 1
            w = token.wmes[-1]
            tail = (w,)
            tag = (w.timetag,)
            for item in opposite:
                if passes(item.wmes, w):
                    joined = Token(item.wmes + tail, item.key + tag)
                    for child in children:
                        out.append(Activation(child, LEFT, sign, joined))
        stats.tokens_emitted += len(out)
        return out


class NotNode(TwoInputNode):
    """Coalesced memory + two-input node for a negated CE.

    Left tokens are stored wrapped in :class:`NotEntry` carrying the
    count of matching right WMEs; a left token is live downstream iff
    its count is zero.
    """

    kind = "not"

    def activate(self, ctx: MatchContext, act: Activation) -> List[Activation]:
        memory = ctx.memory
        stats = ctx.stats
        stats.not_activations += 1
        side = act.side
        sign = act.sign
        token = act.token
        children = self.children
        if not ctx.keyed:
            key = ()
            passes = self.all_tests_fn
        else:
            passes = self.tests_fn
            if side == LEFT:
                key = self.left_key_fn(token.wmes)
            else:
                key = self.right_key_fn(token.wmes[-1])

        if side == LEFT:
            if sign == ADD:
                count = 0
                rights = memory.right.get((self.node_id, key))
                if rights:
                    stats.opp_examined_left += len(rights)
                    stats.opp_count_left += 1
                    if ctx.tracing:
                        ctx.last_opp_examined = len(rights)
                    wmes = token.wmes
                    for item in rights:
                        if passes(wmes, item.wmes[0]):
                            count += 1
                entry = self.update_memory(ctx, act, key, NotEntry(token, count))
            else:
                entry = self.update_memory(ctx, act, key)
            if entry is None or entry.count:
                return []
            out = [Activation(child, LEFT, sign, token) for child in children]
        else:
            if self.update_memory(ctx, act, key) is None:
                return []
            out = []
            lefts = memory.left.get((self.node_id, key))
            if lefts:
                stats.opp_examined_right += len(lefts)
                stats.opp_count_right += 1
                if ctx.tracing:
                    ctx.last_opp_examined = len(lefts)
                w = token.wmes[-1]
                # A blocker arriving takes a count 0 -> 1 and retracts
                # the left token; one leaving, 1 -> 0, re-asserts it.
                edge = 1 if sign == ADD else 0
                for entry in lefts:
                    if passes(entry.token.wmes, w):
                        entry.count += sign
                        if entry.count == edge:
                            for child in children:
                                out.append(Activation(child, LEFT, -sign, entry.token))
        stats.tokens_emitted += len(out)
        return out


class TerminalNode(BetaNode):
    """One per production: converts arriving tokens into CS deltas."""

    kind = "term"

    def __init__(self, node_id: int, production: Production) -> None:
        super().__init__(node_id)
        self.production = production

    def activate(self, ctx: MatchContext, act: Activation) -> List[Activation]:
        stats = ctx.stats
        stats.node_activations += 1
        stats.term_activations += 1
        stats.cs_changes += 1
        ctx.cs_deltas.append(CSDelta(self.production, act.token, act.sign))
        return []

