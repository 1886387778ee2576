"""On-demand aggregation of an event snapshot into hot-spot tables.

The runtime analogue of the paper's evidence chain: per-node and
per-production tables answer "where does match time go" (the Hiperfact
hot-spot question), per-lock tables answer "where does synchronization
time go" (Tables 4-7/4-9 as live measurements), and the phase table
splits the recognize-act cycle into match / conflict-resolution / act
(the §2.1 decomposition the paper times).

``build`` consumes an :class:`~repro.obs.events.ObsSnapshot`; passing
the compiled :class:`~repro.rete.network.ReteNetwork` attributes each
beta node to its owning production (beta nodes are never shared between
productions — paper footnote 6 — so the attribution is exact, and the
per-production activation totals equal ``MatchStats.node_activations``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .events import ObsSnapshot

_NS_PER_MS = 1e6


@dataclass
class NodeRow:
    """Hot-spot row for one two-input/terminal node."""

    node_id: int
    kind: str
    production: str  # "?" when no network was supplied
    activations: int
    self_ms: float
    examined: int
    emitted: int


@dataclass
class ProductionRow:
    """Per-production roll-up of its (private) beta nodes."""

    production: str
    activations: int
    self_ms: float
    examined: int


@dataclass
class LockRow:
    """Timed contention profile for one lock site label."""

    label: str
    acquires: int
    contended: int
    wait_ms: float
    hold_ms: float

    @property
    def contention_ratio(self) -> float:
        return self.contended / self.acquires if self.acquires else 0.0


@dataclass
class PhaseRow:
    """One recognize-act phase (match / select / act / ...)."""

    phase: str
    count: int
    total_ms: float


@dataclass
class Profile:
    """Everything :func:`build` derives from one snapshot."""

    nodes: List[NodeRow] = field(default_factory=list)
    productions: List[ProductionRow] = field(default_factory=list)
    locks: List[LockRow] = field(default_factory=list)
    phases: List[PhaseRow] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    dropped: int = 0

    @property
    def total_activations(self) -> int:
        """Every activation is one node's; the productions table sums to
        the same total, one row per owner."""
        return sum(row.activations for row in self.nodes)


def build(snap: ObsSnapshot, network=None) -> Profile:
    """Aggregate ``snap`` into sorted hot-spot tables (hottest first)."""
    owner: Dict[int, str] = getattr(network, "node_owner", None) or {}
    profile = Profile(counters=dict(snap.counters), dropped=snap.dropped)

    by_prod: Dict[str, ProductionRow] = {}
    for node_id, (kind, acts, self_ns, examined, emitted) in snap.nodes.items():
        prod = owner.get(node_id, "?")
        profile.nodes.append(
            NodeRow(
                node_id=node_id,
                kind=kind,
                production=prod,
                activations=acts,
                self_ms=self_ns / _NS_PER_MS,
                examined=examined,
                emitted=emitted,
            )
        )
        row = by_prod.get(prod)
        if row is None:
            by_prod[prod] = ProductionRow(prod, acts, self_ns / _NS_PER_MS, examined)
        else:
            row.activations += acts
            row.self_ms += self_ns / _NS_PER_MS
            row.examined += examined
    profile.productions = sorted(
        by_prod.values(), key=lambda r: r.self_ms, reverse=True
    )
    profile.nodes.sort(key=lambda r: r.self_ms, reverse=True)

    for label, (acquires, contended, wait_ns, hold_ns) in sorted(snap.locks.items()):
        profile.locks.append(
            LockRow(
                label=label,
                acquires=acquires,
                contended=contended,
                wait_ms=wait_ns / _NS_PER_MS,
                hold_ms=hold_ns / _NS_PER_MS,
            )
        )
    profile.locks.sort(key=lambda r: r.wait_ms, reverse=True)

    phases: Dict[str, PhaseRow] = {}
    for _t0, dur, _cat, name, _args in snap.spans_by_cat("phase"):
        row = phases.get(name)
        if row is None:
            phases[name] = PhaseRow(name, 1, dur / _NS_PER_MS)
        else:
            row.count += 1
            row.total_ms += dur / _NS_PER_MS
    profile.phases = sorted(phases.values(), key=lambda r: r.total_ms, reverse=True)
    return profile


# -- renderers ---------------------------------------------------------------


def render_text(profile: Profile, limit: int = 15) -> str:
    """Human-readable hot-spot report, hottest entries first."""
    lines: List[str] = []
    if profile.phases:
        lines.append("phases (recognize-act cycle):")
        lines.append(f"  {'phase':<16} {'count':>8} {'total ms':>10}")
        for row in profile.phases:
            lines.append(f"  {row.phase:<16} {row.count:>8} {row.total_ms:>10.2f}")
        lines.append("")
    if profile.productions:
        lines.append(f"hot productions (top {limit}):")
        lines.append(
            f"  {'production':<28} {'activations':>11} {'self ms':>9} {'examined':>9}"
        )
        for row in profile.productions[:limit]:
            lines.append(
                f"  {row.production:<28} {row.activations:>11} "
                f"{row.self_ms:>9.2f} {row.examined:>9}"
            )
        lines.append(
            f"  total activations: {profile.total_activations}"
        )
        lines.append("")
    if profile.nodes:
        lines.append(f"hot nodes (top {limit}):")
        lines.append(
            f"  {'node':>6} {'kind':<5} {'production':<28} "
            f"{'activations':>11} {'self ms':>9} {'examined':>9} {'emitted':>8}"
        )
        for row in profile.nodes[:limit]:
            lines.append(
                f"  {row.node_id:>6} {row.kind:<5} {row.production:<28} "
                f"{row.activations:>11} {row.self_ms:>9.2f} "
                f"{row.examined:>9} {row.emitted:>8}"
            )
        lines.append("")
    if profile.locks:
        lines.append("lock contention:")
        lines.append(
            f"  {'lock':<12} {'acquires':>9} {'contended':>9} {'ratio':>7} "
            f"{'wait ms':>9} {'hold ms':>9}"
        )
        for row in profile.locks:
            lines.append(
                f"  {row.label:<12} {row.acquires:>9} {row.contended:>9} "
                f"{row.contention_ratio:>7.3f} {row.wait_ms:>9.2f} {row.hold_ms:>9.2f}"
            )
        lines.append("")
    if profile.counters:
        lines.append("counters:")
        for name, n in sorted(profile.counters.items()):
            lines.append(f"  {name:<28} {n}")
        lines.append("")
    if profile.dropped:
        lines.append(f"dropped spans (buffer cap): {profile.dropped}")
    return "\n".join(lines).rstrip() or "(no events recorded)"


def to_json(profile: Profile) -> dict:
    """The same tables as a JSON-serializable dict."""
    return {
        "phases": [
            {"phase": r.phase, "count": r.count, "total_ms": r.total_ms}
            for r in profile.phases
        ],
        "productions": [
            {
                "production": r.production,
                "activations": r.activations,
                "self_ms": r.self_ms,
                "examined": r.examined,
            }
            for r in profile.productions
        ],
        "nodes": [
            {
                "node_id": r.node_id,
                "kind": r.kind,
                "production": r.production,
                "activations": r.activations,
                "self_ms": r.self_ms,
                "examined": r.examined,
                "emitted": r.emitted,
            }
            for r in profile.nodes
        ],
        "locks": [
            {
                "label": r.label,
                "acquires": r.acquires,
                "contended": r.contended,
                "contention_ratio": r.contention_ratio,
                "wait_ms": r.wait_ms,
                "hold_ms": r.hold_ms,
            }
            for r in profile.locks
        ],
        "counters": dict(profile.counters),
        "total_activations": profile.total_activations,
        "dropped": profile.dropped,
    }
