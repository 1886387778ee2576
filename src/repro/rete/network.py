"""Compilation of productions into the Rete network.

Mirrors the paper's compiler (§2.2/§3.1):

* constant tests go into a shared tree of one-input nodes under a
  per-class dispatch (node sharing happens here, as in Figure 2-2);
* each positive condition element beyond the first becomes a coalesced
  memory/two-input :class:`~repro.rete.nodes.JoinNode`;
* negated condition elements become :class:`~repro.rete.nodes.NotNode`;
* every production gets one :class:`~repro.rete.nodes.TerminalNode`.

Beta (two-input) nodes are deliberately *not* shared between
productions: footnote 6 of the paper explains memory nodes cannot be
shared in the parallel implementation, so vs1/vs2/PSM-E all keep them
private — and so do we.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ops5.astnodes import (
    AttrTest,
    ConditionElement,
    Conjunction,
    Disjunction,
    Lit,
    Production,
    Program,
    Test,
    Var,
)
from ..ops5.errors import CompileError
from ..ops5.wme import WME
from .evaluators import make_evaluator
from .nodes import AlphaTerminal, BetaNode, ConstantTestNode, JoinNode, NotNode, TerminalNode


@dataclass
class _ClassEntry:
    """Alpha-network state under one class-dispatch slot."""

    children: Dict[tuple, ConstantTestNode] = field(default_factory=dict)
    terminal: Optional[AlphaTerminal] = None


@dataclass
class _CECompilation:
    """Per-condition-element compilation products."""

    alpha_descs: List[tuple]
    join_descs: List[tuple]
    exported: Dict[str, str]  # var -> attr (bindings this CE can export)


class ReteNetwork:
    """The compiled network for one program.

    ``mode`` selects the test-evaluation strategy (``'compiled'`` or
    ``'interpreted'``) — see :mod:`repro.rete.evaluators`.
    """

    def __init__(self, mode: str = "compiled") -> None:
        self.mode = mode
        #: Content hash identifying this compiled network (set when the
        #: caller knows the source text, e.g. the service network cache).
        self.key: Optional[str] = None
        self.evaluator = make_evaluator(mode)
        self._classes: Dict[str, _ClassEntry] = {}
        self._next_node_id = 1
        self._next_alpha_id = 1
        self.beta_nodes: List[BetaNode] = []
        self.terminals: Dict[str, TerminalNode] = {}
        self.alpha_terminals: List[AlphaTerminal] = []
        self.constant_nodes: List[ConstantTestNode] = []
        self.productions: List[Production] = []
        #: beta node id -> owning production name.  Exact attribution:
        #: beta nodes are never shared between productions (paper
        #: footnote 6), so the observability layer can roll node
        #: hot-spots up into per-production profiles.
        self.node_owner: Dict[int, str] = {}

    # -- construction ----------------------------------------------------

    @staticmethod
    def compile(
        program: Program, mode: str = "compiled", key: Optional[str] = None
    ) -> "ReteNetwork":
        net = ReteNetwork(mode=mode)
        net.key = key
        for prod in program.productions:
            net.add_production(prod)
        return net

    @staticmethod
    def compile_key(source: str, mode: str = "compiled") -> str:
        """Stable content hash for (program source, compile mode).

        Two texts with the same hash compile to interchangeable
        networks, so caches may hand out one compiled network for every
        session running that program.  Line endings are normalized;
        anything else (whitespace, comments) is deliberately *not* — a
        cheap, collision-safe key beats a clever one.
        """
        digest = hashlib.sha256()
        digest.update(mode.encode("ascii"))
        digest.update(b"\x00")
        digest.update(source.replace("\r\n", "\n").encode("utf-8"))
        return digest.hexdigest()

    def add_production(self, prod: Production) -> TerminalNode:
        """Compile one production into the network."""
        if prod.name in self.terminals:
            raise CompileError(f"production {prod.name!r} already compiled")
        bindings: Dict[str, Tuple[int, str]] = {}
        beta_source: Optional[BetaNode] = None
        first_alpha: Optional[AlphaTerminal] = None
        positive_seen = 0

        for ce in prod.ces:
            comp = self._compile_ce(ce, bindings, prod)
            alpha = self._alpha_chain(ce.klass, comp.alpha_descs)
            if not ce.negated and positive_seen == 0:
                first_alpha = alpha
                positive_seen = 1
                # Export bindings at token position 0.
                for var, attr in comp.exported.items():
                    bindings.setdefault(var, (0, attr))
                continue

            node = self._make_two_input(ce, comp)
            self.node_owner[node.node_id] = prod.name
            # Left input: previous beta node, or the first CE's alpha.
            if beta_source is None:
                assert first_alpha is not None
                first_alpha.successors.append((node, "L"))
            else:
                beta_source.children.append(node)
            alpha.successors.append((node, "R"))
            beta_source = node
            if not ce.negated:
                for var, attr in comp.exported.items():
                    bindings.setdefault(var, (positive_seen, attr))
                positive_seen += 1

        term = TerminalNode(self._new_node_id(), prod)
        self.node_owner[term.node_id] = prod.name
        if beta_source is None:
            assert first_alpha is not None
            first_alpha.successors.append((term, "L"))
        else:
            beta_source.children.append(term)
        self.beta_nodes.append(term)
        self.terminals[prod.name] = term
        self.productions.append(prod)
        return term

    def _new_node_id(self) -> int:
        nid = self._next_node_id
        self._next_node_id += 1
        return nid

    def _make_two_input(self, ce: ConditionElement, comp: _CECompilation) -> BetaNode:
        descs = tuple(comp.join_descs)
        eq_descs = tuple(d for d in descs if d[1] == "=")
        noneq_descs = tuple(d for d in descs if d[1] != "=")
        tests_fn = self.evaluator.join_tests(noneq_descs)
        all_tests_fn = self.evaluator.join_tests(descs)
        left_key_fn, right_key_fn = self.evaluator.key_fns(eq_descs)
        cls = NotNode if ce.negated else JoinNode
        node = cls(
            self._new_node_id(),
            tests=descs,
            eq_descs=eq_descs,
            tests_fn=tests_fn,
            all_tests_fn=all_tests_fn,
            left_key_fn=left_key_fn,
            right_key_fn=right_key_fn,
        )
        self.beta_nodes.append(node)
        return node

    def _compile_ce(
        self,
        ce: ConditionElement,
        bindings: Dict[str, Tuple[int, str]],
        prod: Production,
    ) -> _CECompilation:
        alpha_descs: List[tuple] = []
        join_descs: List[tuple] = []
        local: Dict[str, str] = {}

        def handle(attr: str, test) -> None:
            if isinstance(test, Disjunction):
                alpha_descs.append(("disj", attr, frozenset(test.values)))
                return
            if isinstance(test, Conjunction):
                for sub in test.tests:
                    handle(attr, sub)
                return
            assert isinstance(test, Test)
            operand = test.operand
            if isinstance(operand, Lit):
                alpha_descs.append(("const", attr, test.op, operand.value))
                return
            assert isinstance(operand, Var)
            var = operand.name
            if var in local:
                # Second occurrence inside this CE: intra-element test.
                alpha_descs.append(("intra", attr, test.op, local[var]))
                return
            if var in bindings:
                pos, lattr = bindings[var]
                join_descs.append((attr, test.op, pos, lattr))
                # Also remember locally so a later occurrence in this CE
                # can be checked intra-element (cheaper than a join).
                if test.op == "=":
                    local.setdefault(var, attr)
                return
            if test.op == "=":
                local[var] = attr
                return
            raise CompileError(
                f"production {prod.name}: predicate {test.op!r} applied to "
                f"unbound variable <{var}> in CE of class {ce.klass}"
            )

        for at in ce.tests:
            handle(at.attr, at.test)

        exported = {} if ce.negated else dict(local)
        return _CECompilation(
            alpha_descs=alpha_descs, join_descs=join_descs, exported=exported
        )

    def _alpha_chain(self, klass: str, descs: Sequence[tuple]) -> AlphaTerminal:
        """Find-or-build the shared constant-test chain for one CE."""
        entry = self._classes.setdefault(klass, _ClassEntry())
        # Canonical order maximizes sharing between CEs that list the
        # same tests in different orders.
        ordered = sorted(descs, key=repr)
        node: Optional[ConstantTestNode] = None
        for desc in ordered:
            if node is None:
                child = entry.children.get(desc)
            else:
                child = next((c for c in node.children if c.desc == desc), None)
            if child is None:
                child = ConstantTestNode(
                    self._new_node_id(), desc, self.evaluator.alpha_test(desc)
                )
                self.constant_nodes.append(child)
                if node is None:
                    entry.children[desc] = child
                else:
                    node.children.append(child)
            node = child

        if node is None:
            if entry.terminal is None:
                entry.terminal = self._new_alpha_terminal()
            return entry.terminal
        term = next((t for t in node.terminals), None)
        if term is None:
            term = self._new_alpha_terminal()
            node.terminals.append(term)
        return term

    def _new_alpha_terminal(self) -> AlphaTerminal:
        term = AlphaTerminal(self._next_alpha_id)
        self._next_alpha_id += 1
        self.alpha_terminals.append(term)
        return term

    # -- alpha dispatch ---------------------------------------------------

    def alpha_dispatch(self, wme: WME) -> Tuple[List[AlphaTerminal], int]:
        """Run ``wme`` through the constant-test network.

        Returns the alpha terminals whose chains the WME satisfies and
        the number of constant tests evaluated (including the class
        dispatch, which the paper counts as a constant-test node).
        """
        entry = self._classes.get(wme.klass)
        tests = 1  # the class test
        if entry is None:
            return [], tests
        hits: List[AlphaTerminal] = []
        if entry.terminal is not None:
            hits.append(entry.terminal)
        stack = list(entry.children.values())
        while stack:
            node = stack.pop()
            tests += 1
            if node.test(wme):
                hits.extend(node.terminals)
                stack.extend(node.children)
        return hits, tests

    # -- introspection ----------------------------------------------------

    def node_counts(self) -> Dict[str, int]:
        joins = sum(1 for n in self.beta_nodes if isinstance(n, JoinNode))
        nots = sum(1 for n in self.beta_nodes if isinstance(n, NotNode))
        return {
            "constant_test": len(self.constant_nodes),
            "alpha_terminal": len(self.alpha_terminals),
            "join": joins,
            "not": nots,
            "terminal": len(self.terminals),
        }

    def two_input_nodes(self) -> List[BetaNode]:
        return [n for n in self.beta_nodes if n.uses_line()]
