"""Rule plans: the corgi engine's view of a compiled Rete network.

The corgi engine (see :mod:`repro.corgi.engine`) keeps no beta-token
memories at all — it re-derives instantiations on demand from per-slot
alpha memories, in the TREAT/CORGI tradition.  What it needs from the
network is therefore *per-production join plans*, not the node graph:
for each production, the ordered list of condition-element "slots" with
their alpha terminals, hash-key functions and residual join tests.

Rather than re-compiling the OPS5 AST, the plans are lifted from an
already-compiled :class:`~repro.rete.network.ReteNetwork`: beta nodes
are never shared between productions (paper footnote 6), so each
production's two-input nodes appear, in condition-element order, under
its name in ``network.node_owner`` — and each node carries exactly the
``left_key_fn`` / ``right_key_fn`` / ``tests_fn`` closures the engine
needs.  Reusing them guarantees corgi and Rete apply byte-identical
test semantics, which is what the conformance suite holds them to.

Negated slots additionally get a hoisted evaluation depth ``needed``:
the number of leading *positive* WMEs that must be bound before the
slot's join tests can be evaluated.  A negated CE exports no bindings,
so its test may be checked as soon as positions ``0..needed-1`` of a
candidate instantiation are fixed — far earlier than Rete checks it
for CEs late in the chain.  A constant blocker (``needed == 0``) gates
the whole production before any enumeration happens at all, which is
what defeats the deep-chain blow-up programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..ops5.astnodes import Production
from ..rete.network import ReteNetwork
from ..rete.nodes import AlphaTerminal, JoinNode, NotNode


def _no_key(_w) -> tuple:
    return ()


def _no_tests(_wmes, _w) -> bool:
    return True


@dataclass
class SlotPlan:
    """One condition element of one production, as corgi evaluates it."""

    index: int            #: position among all slots (CE order)
    positive: bool        #: False for a negated CE
    pos_index: int        #: position among positive slots; -1 if negated
    needed: int           #: positive prefix length required to test (negated)
    node_id: int          #: beta node this slot's work is attributed to
    kind: str             #: "join" / "not" — mirrors the node kinds
    alpha: AlphaTerminal  #: constant-test chain exit feeding this slot
    right_key: Callable   #: WME -> hash key (eq-join subset)
    left_key: Callable    #: bound-prefix wmes -> hash key
    tests: Callable       #: residual (non-eq) join tests (wmes, w) -> bool


@dataclass
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


def compile_plans(
    network: ReteNetwork,
) -> Tuple[List[RulePlan], Dict[int, List[Tuple[RulePlan, SlotPlan]]]]:
    """Lift per-production join plans out of a compiled network.

    Returns ``(plans, routing)`` where ``routing`` maps an alpha
    terminal id to every ``(plan, slot)`` pair it feeds — the corgi
    analogue of ``AlphaTerminal.successors``.
    """
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
    routing: Dict[int, List[Tuple[RulePlan, SlotPlan]]] = {}
    for prod in network.productions:
        term = network.terminals[prod.name]
        chain = chains[prod.name]
        first_id = chain[0].node_id if chain else term.node_id
        slots = [
            SlotPlan(
                index=0,
                positive=True,
                pos_index=0,
                needed=0,
                node_id=first_id,
                kind="join",
                alpha=alpha_of[(first_id, "L")],
                right_key=_no_key,
                left_key=_no_key,
                tests=_no_tests,
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
                    index=i + 1,
                    positive=not negated,
                    pos_index=-1 if negated else pos_index,
                    needed=needed,
                    node_id=node.node_id,
                    kind=node.kind,
                    alpha=alpha_of[(node.node_id, "R")],
                    right_key=node.right_key_fn or _no_key,
                    left_key=node.left_key_fn or _no_key,
                    tests=node.tests_fn or _no_tests,
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
        for s in slots:
            routing.setdefault(s.alpha.alpha_id, []).append((plan, s))
        plans.append(plan)
    return plans, routing
