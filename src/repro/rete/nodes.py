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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..ops5.astnodes import Production
from ..ops5.wme import WME
from .memories import LEFT, RIGHT, NotEntry
from .token import ADD, DELETE, Token


@dataclass
class Activation:
    """One schedulable unit of match work: a token arriving at a node.

    This is the paper's *task*.  ``side`` is ``'L'``/``'R'`` for
    two-input nodes and ``'L'`` for terminals.
    """

    node: "BetaNode"
    side: str
    sign: int
    token: Token

    #: tid of the task whose output spawned this one.  A plain class
    #: default, not a field: the kernel assigns it per instance only
    #: while a :class:`~repro.rete.trace.TraceRecorder` is attached.
    parent = -1

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
    processing) that is a bug and raises; the parallel engine runs with
    ``strict=False`` and a conjugate-aware memory wrapper that parks the
    early delete on an extra-deletes list (§3.2).
    """

    __slots__ = (
        "memory",
        "stats",
        "cs_deltas",
        "strict",
        "tracing",
        "last_line",
        "last_opp_examined",
        "last_same_examined",
    )

    def __init__(self, memory, stats, strict: bool = True, tracing: bool = False) -> None:
        self.memory = memory
        self.stats = stats
        self.strict = strict
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
        if side == LEFT:
            return self.left_key_fn(token.wmes)
        return self.right_key_fn(token.wmes[-1])

    def _filter_fn(self, memory) -> Callable:
        # Hash memories already guarantee the equality tests via the
        # bucket key; linear memories must re-check everything.
        return self.tests_fn if memory.kind == "hash" else self.all_tests_fn

    def _remove(self, ctx: MatchContext, side: str, key: tuple, token: Token):
        """Delete ``token``'s stored twin from this node's ``side``
        memory.  Returns the stored item, or None when the activation
        must stop: no ``+`` twin was there, and the conjugate memory
        wrapper parked the early delete on its extra-deletes list (a
        strict context raises instead)."""
        found, examined = ctx.memory.remove(self.node_id, side, key, token.key)
        if examined:
            ctx.stats.record_same_delete(side, examined)
        if ctx.tracing:
            ctx.last_same_examined = examined
        if found is None and ctx.strict:
            raise RuntimeError(
                f"delete of unknown token {token} at {self.kind} node {self.node_id}"
            )
        return found


class JoinNode(TwoInputNode):
    """Coalesced memory + two-input node for a positive CE."""

    kind = "join"

    def activate(self, ctx: MatchContext, act: Activation) -> List[Activation]:
        key = self.key_for(act.side, act.token)
        proceed = self.update_memory(ctx, act, key)
        if not proceed:
            return []
        return self.search_opposite(ctx, act, key)

    def update_memory(self, ctx: MatchContext, act: Activation, key: tuple) -> bool:
        """Phase 1 (under the modification lock in the parallel engine):
        add/delete the token in this node's memory.  Returns False when
        the activation should stop (conjugate-pair annihilation or a
        parked early delete)."""
        memory = ctx.memory
        stats = ctx.stats
        side = act.side
        token = act.token
        stats.record_activation("join")
        if ctx.tracing:
            ctx.last_line = memory.line_of(self.node_id, key)

        if act.sign == ADD:
            live = memory.insert(self.node_id, side, key, token)
            if live is False:
                # Annihilated by a parked early delete (conjugate pair).
                return False
        elif self._remove(ctx, side, key, token) is None:
            # Parked early delete; do not join.
            return False
        return True

    def search_opposite(self, ctx: MatchContext, act: Activation, key: tuple) -> List[Activation]:
        """Phase 2 (outside the modification lock): scan the opposite
        memory for consistent tokens and build child activations."""
        memory = ctx.memory
        stats = ctx.stats
        side = act.side
        token = act.token
        opposite, examined = memory.lookup_opposite(self.node_id, side, key)
        if ctx.tracing:
            ctx.last_opp_examined = examined
        other = RIGHT if side == LEFT else LEFT
        if memory.side_size(self.node_id, other) > 0:
            stats.record_opposite(side, examined)
        if not opposite:
            return []

        passes = self._filter_fn(memory)
        out: List[Activation] = []
        if side == LEFT:
            wmes = token.wmes
            for item in list(opposite):
                w = item.wmes[0]
                if passes(wmes, w):
                    out.extend(
                        Activation(child, LEFT, act.sign, token.extend(w))
                        for child in self.children
                    )
        else:
            w = token.wmes[-1]
            for item in list(opposite):
                if passes(item.wmes, w):
                    out.extend(
                        Activation(child, LEFT, act.sign, item.extend(w))
                        for child in self.children
                    )
        stats.tokens_emitted += len(out)
        return out


class NotNode(TwoInputNode):
    """Coalesced memory + two-input node for a negated CE.

    Left tokens are stored wrapped in :class:`NotEntry` carrying the
    count of matching right WMEs; a left token is live downstream iff
    its count is zero.
    """

    kind = "not"

    def _emit(self, sign: int, token: Token) -> List[Activation]:
        return [
            Activation(child, LEFT, sign, token)
            for child in self.children
        ]

    def activate(self, ctx: MatchContext, act: Activation) -> List[Activation]:
        memory = ctx.memory
        stats = ctx.stats
        side = act.side
        token = act.token
        key = self.key_for(side, token)
        stats.record_activation("not")
        if ctx.tracing:
            ctx.last_line = memory.line_of(self.node_id, key)
        passes = self._filter_fn(memory)
        out: List[Activation] = []

        if side == LEFT:
            if act.sign == ADD:
                opposite, examined = memory.lookup_opposite(self.node_id, side, key)
                if ctx.tracing:
                    ctx.last_opp_examined = examined
                if memory.side_size(self.node_id, RIGHT) > 0:
                    stats.record_opposite(side, examined)
                wmes = token.wmes
                count = sum(1 for item in opposite if passes(wmes, item.wmes[0]))
                live = memory.insert(self.node_id, side, key, NotEntry(token, count))
                if live is False:
                    return []
                if count == 0:
                    out = self._emit(ADD, token)
            else:
                entry = self._remove(ctx, side, key, token)
                if entry is None:
                    return []
                if entry.count == 0:
                    out = self._emit(DELETE, token)
        else:
            w = token.wmes[-1]
            if act.sign == ADD:
                live = memory.insert(self.node_id, side, key, token)
                if live is False:
                    return []
            elif self._remove(ctx, side, key, token) is None:
                return []
            lefts, examined = memory.lookup_opposite(self.node_id, side, key)
            if ctx.tracing:
                ctx.last_opp_examined = examined
            if memory.side_size(self.node_id, LEFT) > 0:
                stats.record_opposite(side, examined)
            for entry in lefts:
                if passes(entry.token.wmes, w):
                    if act.sign == ADD:
                        entry.count += 1
                        if entry.count == 1:
                            out.extend(self._emit(DELETE, entry.token))
                    else:
                        entry.count -= 1
                        if entry.count == 0:
                            out.extend(self._emit(ADD, entry.token))
        stats.tokens_emitted += len(out)
        return out


class TerminalNode(BetaNode):
    """One per production: converts arriving tokens into CS deltas."""

    kind = "term"

    def __init__(self, node_id: int, production: Production) -> None:
        super().__init__(node_id)
        self.production = production

    def activate(self, ctx: MatchContext, act: Activation) -> List[Activation]:
        ctx.stats.record_activation("term")
        ctx.stats.cs_changes += 1
        ctx.cs_deltas.append(CSDelta(self.production, act.token, act.sign))
        return []

