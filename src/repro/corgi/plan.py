"""Rule plans: the corgi engine's view of a compiled Rete network.

The corgi engine (see :mod:`repro.corgi.engine`) keeps no beta-token
memories at all — it re-derives instantiations on demand from shared
alpha memories, in the TREAT/CORGI tradition.  What it needs from the
network is therefore *per-production join plans* and a *memory layout*,
not the node graph: for each production, the ordered list of
condition-element "slots" with their hash-key functions and residual
join tests; for each distinct (alpha terminal, equality-key attributes)
pair, one :class:`MemPlan` naming every slot that reads it (paper §2.2 /
Fig. 2-2's node sharing, carried one step past the constant tests).

Rather than re-compiling the OPS5 AST, the plans are lifted from an
already-compiled :class:`~repro.rete.network.ReteNetwork`: beta nodes
are never shared between productions (paper footnote 6), so each
production's two-input nodes appear, in condition-element order, under
its name in ``network.node_owner`` — and each node carries exactly the
``left_key_fn`` / ``right_key_fn`` / ``tests_fn`` closures the engine
needs.  Reusing them guarantees corgi and Rete apply byte-identical
test semantics, which is what the conformance suite holds them to.  An
absent key or residual test is ``None`` here as it is on the node,
never a stand-in function.

Negated slots additionally get a hoisted evaluation depth ``needed``:
the number of leading *positive* WMEs that must be bound before the
slot's join tests can be evaluated.  A negated CE exports no bindings,
so its test may be checked as soon as positions ``0..needed-1`` of a
candidate instantiation are fixed — far earlier than Rete checks it
for CEs late in the chain.  A constant blocker (``needed == 0``) gates
the whole production before any enumeration happens at all, which is
what defeats the deep-chain blow-up programs.

Plans hold no run state, so they are compiled once per network
(:func:`compile_plans` memoises on the network object) and shared by
every matcher built over it — a serve session on a cached network
builds only its own memories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from ..ops5.astnodes import Production
from ..ops5.collector import collector_paused
from ..rete.network import ReteNetwork
from ..rete.nodes import AlphaTerminal, JoinNode, NotNode


@dataclass(eq=False)
class SlotPlan:
    """One condition element of one production, as corgi evaluates it."""

    rule: int             #: position of the owning plan in ``plans``
    index: int            #: position among all slots (CE order)
    positive: bool        #: False for a negated CE
    pos_index: int        #: position among positive slots; -1 if negated
    needed: int           #: positive prefix length required to test (negated)
    node_id: int          #: beta node this slot's work is attributed to
    kind: str             #: "join" / "not" — mirrors the node kinds
    alpha: AlphaTerminal  #: constant-test chain exit feeding this slot
    key_attrs: Tuple[str, ...]    #: WME attributes of the eq-join key
    right_key: Optional[Callable]  #: WME -> hash key; None without eq tests
    left_key: Optional[Callable]   #: bound-prefix wmes -> hash key, or None
    tests: Optional[Callable]      #: residual (wmes, w) -> bool, or None
    mem: int = -1         #: index of the shared memory this slot reads


@dataclass(eq=False)
class MemPlan:
    """One shared alpha memory: the WMEs passing ``alpha``, bucketed by
    ``key_attrs`` — read by every slot with that terminal and key."""

    index: int
    alpha: AlphaTerminal
    key_attrs: Tuple[str, ...]
    right_key: Optional[Callable]
    readers: List[SlotPlan] = field(default_factory=list)


@dataclass(eq=False)
class RulePlan:
    """Everything corgi needs to (re)derive one production's matches."""

    name: str
    production: Production
    terminal_id: int
    slots: List[SlotPlan]
    pos_slots: List[SlotPlan] = field(default_factory=list)
    #: gates_at[d] = negated slots checkable once d positives are bound.
    gates_at: List[List[SlotPlan]] = field(default_factory=list)

    @property
    def n_pos(self) -> int:
        return len(self.pos_slots)


Routing = Dict[int, List[Tuple[RulePlan, SlotPlan]]]

#: network -> (plans, routing, memory layout).
_COMPILED: "WeakKeyDictionary[ReteNetwork, tuple]" = WeakKeyDictionary()


@collector_paused
def compile_plans(network: ReteNetwork) -> Tuple[List[RulePlan], Routing]:
    """Lift per-production join plans out of a compiled network.

    Returns ``(plans, routing)`` where ``routing`` maps an alpha
    terminal id to every ``(plan, slot)`` pair it feeds — the corgi
    analogue of ``AlphaTerminal.successors``.  Compiled once per
    network: a second call returns the same objects.
    """
    return _compiled(network)[:2]


def memory_layout(network: ReteNetwork) -> List[MemPlan]:
    """The shared alpha memories of ``network``'s plans, one per
    distinct (alpha terminal, equality-key attributes) pair, in first-
    reader order; ``slot.mem`` indexes this list."""
    return _compiled(network)[2]


def _compiled(network: ReteNetwork) -> tuple:
    entry = _COMPILED.get(network)
    # One plan per production: a network that grew since is recompiled.
    if entry is None or len(entry[0]) != len(network.productions):
        entry = _COMPILED[network] = _compile(network)
    return entry


def _compile(network: ReteNetwork) -> Tuple[List[RulePlan], Routing, List[MemPlan]]:
    # Reverse alpha edges once: (node_id, side) -> alpha terminal.
    alpha_of: Dict[Tuple[int, str], AlphaTerminal] = {}
    for at in network.alpha_terminals:
        for node, side in at.successors:
            alpha_of[(node.node_id, side)] = at

    # Per-production two-input chains, in CE order (beta_nodes preserves
    # the append order of add_production; nodes are never shared).
    chains: Dict[str, List] = {name: [] for name in network.terminals}
    for node in network.beta_nodes:
        if isinstance(node, (JoinNode, NotNode)):
            chains[network.node_owner[node.node_id]].append(node)

    plans: List[RulePlan] = []
    routing: Routing = {}
    layout: List[MemPlan] = []
    # Grouped by attribute names, not by key-function identity: the
    # interpreted evaluator builds one closure per node.
    mem_of: Dict[Tuple[int, Tuple[str, ...]], MemPlan] = {}
    for rule, prod in enumerate(network.productions):
        term = network.terminals[prod.name]
        chain = chains[prod.name]
        first_id = chain[0].node_id if chain else term.node_id
        slots = [
            SlotPlan(
                rule=rule,
                index=0,
                positive=True,
                pos_index=0,
                needed=0,
                node_id=first_id,
                kind="join",
                alpha=alpha_of[(first_id, "L")],
                key_attrs=(),
                right_key=None,
                left_key=None,
                tests=None,
            )
        ]
        pos_index = 1
        for i, node in enumerate(chain):
            negated = isinstance(node, NotNode)
            needed = (
                max(lpos for (_r, _o, lpos, _l) in node.tests) + 1
                if (negated and node.tests)
                else 0
            )
            slots.append(
                SlotPlan(
                    rule=rule,
                    index=i + 1,
                    positive=not negated,
                    pos_index=-1 if negated else pos_index,
                    needed=needed,
                    node_id=node.node_id,
                    kind=node.kind,
                    alpha=alpha_of[(node.node_id, "R")],
                    key_attrs=tuple(rattr for (rattr, _o, _p, _a) in node.eq_descs),
                    right_key=node.right_key_fn,
                    left_key=node.left_key_fn,
                    tests=node.tests_fn,
                )
            )
            if not negated:
                pos_index += 1

        plan = RulePlan(
            name=prod.name,
            production=prod,
            terminal_id=term.node_id,
            slots=slots,
            pos_slots=[s for s in slots if s.positive],
        )
        plan.gates_at = [[] for _ in range(plan.n_pos + 1)]
        for s in slots:
            if not s.positive:
                plan.gates_at[s.needed].append(s)
            routing.setdefault(s.alpha.alpha_id, []).append((plan, s))
            shared = mem_of.get((s.alpha.alpha_id, s.key_attrs))
            if shared is None:
                shared = mem_of[(s.alpha.alpha_id, s.key_attrs)] = MemPlan(
                    len(layout), s.alpha, s.key_attrs, s.right_key
                )
                layout.append(shared)
            shared.readers.append(s)
            s.mem = shared.index
        plans.append(plan)
    return plans, routing, layout
