"""Network introspection: text summaries and Graphviz export.

``describe_network`` gives the one-screen structural view (what the
paper's Figure 2-2 shows); ``to_dot`` emits the network as a Graphviz
``dot`` graph for rendering; ``sharing_report`` quantifies constant-test
node sharing — the paper's point that "when two left-hand sides require
identical nodes, the algorithm shares part of the network".
"""

from __future__ import annotations

from typing import Dict, List

from ..cli import Verb
from .network import ReteNetwork
from .nodes import JoinNode, NotNode, TerminalNode


def describe_network(network: ReteNetwork) -> str:
    """Human-readable structural summary."""
    counts = network.node_counts()
    lines = [
        f"productions: {len(network.productions)}",
        "node counts: "
        + ", ".join(f"{kind}={n}" for kind, n in counts.items()),
    ]
    shared = [t for t in network.alpha_terminals if len(t.successors) > 1]
    lines.append(f"shared alpha terminals: {len(shared)}")
    for term in shared:
        feeds = ", ".join(
            f"{node.kind}#{node.node_id}.{side}" for node, side in term.successors
        )
        lines.append(f"  alpha {term.alpha_id} -> {feeds}")
    cross = [
        n
        for n in network.two_input_nodes()
        if isinstance(n, JoinNode) and not n.eq_descs
    ]
    lines.append(f"cross-product joins (empty hash key): {len(cross)}")
    return "\n".join(lines)


def sharing_report(network: ReteNetwork) -> Dict[str, float]:
    """How much the alpha network is shared between productions.

    ``tests_without_sharing`` counts the *constant* tests (literal
    operands and disjunctions — the ones that compile to constant-test
    nodes) as if each CE compiled its own chain; the ratio against the
    actual node count is the compression the paper's network sharing
    achieves.
    """
    actual = len(network.constant_nodes)
    from ..ops5.astnodes import Conjunction, Disjunction, Lit, Test

    def is_constant(test) -> bool:
        if isinstance(test, Disjunction):
            return True
        return isinstance(test, Test) and isinstance(test.operand, Lit)

    without = 0
    for prod in network.productions:
        for ce in prod.ces:
            for at in ce.tests:
                subtests = (
                    at.test.tests if isinstance(at.test, Conjunction) else (at.test,)
                )
                without += sum(1 for t in subtests if is_constant(t))
    return {
        "constant_nodes": actual,
        "tests_without_sharing": without,
        "sharing_factor": (without / actual) if actual else 1.0,
    }


def to_dot(network: ReteNetwork, title: str = "rete") -> str:
    """The network as a Graphviz digraph (Figure 2-2 style)."""
    out: List[str] = [f'digraph "{title}" {{', "  rankdir=TB;", '  root [shape=box];']

    def alpha_name(aid: int) -> str:
        return f"alpha{aid}"

    def beta_name(node) -> str:
        return f"{node.kind}{node.node_id}"

    for node in network.constant_nodes:
        label = str(node.desc).replace('"', "'")
        out.append(f'  c{node.node_id} [label="{label}", shape=ellipse];')
    for term in network.alpha_terminals:
        out.append(f'  {alpha_name(term.alpha_id)} [label="mem", shape=cylinder];')
    for node in network.beta_nodes:
        if isinstance(node, TerminalNode):
            out.append(
                f'  {beta_name(node)} [label="{node.production.name}", shape=box];'
            )
        else:
            shape = "diamond" if isinstance(node, NotNode) else "trapezium"
            out.append(f'  {beta_name(node)} [label="{node.kind}", shape={shape}];')

    # Edges: root -> class-level constant chains -> alpha terminals.
    emitted = set()
    for node in network.constant_nodes:
        parentless = True
        for other in network.constant_nodes:
            if node in other.children:
                out.append(f"  c{other.node_id} -> c{node.node_id};")
                parentless = False
        if parentless:
            out.append(f"  root -> c{node.node_id};")
        for term in node.terminals:
            out.append(f"  c{node.node_id} -> {alpha_name(term.alpha_id)};")
            emitted.add(term.alpha_id)
    for term in network.alpha_terminals:
        if term.alpha_id not in emitted:
            out.append(f"  root -> {alpha_name(term.alpha_id)};")
        for succ, side in term.successors:
            out.append(
                f'  {alpha_name(term.alpha_id)} -> {beta_name(succ)} [label="{side}"];'
            )
    for node in network.beta_nodes:
        for child in getattr(node, "children", ()):
            out.append(f'  {beta_name(node)} -> {beta_name(child)} [label="L"];')
    out.append("}")
    return "\n".join(out)



def _add_network_arguments(p) -> None:
    p.add_argument("file", metavar="PROGRAM", help="program file or builtin name")
    p.add_argument("--mode", choices=["compiled", "interpreted"], default="compiled")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also list every constant-test and two-input node")


def _network(args) -> int:
    from .. import programs

    program = programs.load(args.file)
    with programs.named_errors(args.file):
        network = ReteNetwork.compile(program, mode=args.mode)
    print(f"productions:        {len(network.productions)}")
    for kind, n in network.node_counts().items():
        print(f"{kind + ':':<19} {n}")
    if args.verbose:
        print("\nconstant-test nodes:")
        for node in network.constant_nodes:
            print(f"  #{node.node_id}: {node.desc}")
        print("\ntwo-input nodes:")
        for node in network.two_input_nodes():
            print(f"  {node.kind} #{node.node_id}: tests={list(node.tests)}")
    return 0


VERBS = {"network": Verb(
    "network",
    "Compile a program and dump its Rete network: node counts by kind and, "
    "with -v, every constant-test and two-input node.",
    _add_network_arguments, _network,
)}
