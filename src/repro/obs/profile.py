"""On-demand aggregation of an event snapshot into hot-spot tables.

The runtime analogue of the paper's evidence chain: per-node and
per-production tables answer "where does match time go" (the Hiperfact
hot-spot question), per-lock tables answer "where does synchronization
time go" (Tables 4-7/4-9 as live measurements), and the phase table
splits the recognize-act cycle into match / conflict-resolution / act
(the §2.1 decomposition the paper times).

``build`` consumes an :class:`~repro.obs.events.ObsSnapshot` and returns
the profile as one JSON document (the serve ``stats`` reply's ``obs``);
``render_text`` prints that document.  Passing the compiled
:class:`~repro.rete.network.ReteNetwork` attributes each beta node to
its owning production (beta nodes are never shared between productions
— paper footnote 6 — so the attribution is exact, and the
per-production activation totals equal ``MatchStats.node_activations``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .events import ObsSnapshot

_NS_PER_MS = 1e6


def build(snap: ObsSnapshot, network=None) -> Dict[str, Any]:
    """Aggregate ``snap`` into sorted hot-spot tables (hottest first)."""
    owner: Dict[int, str] = getattr(network, "node_owner", None) or {}
    nodes: List[Dict[str, Any]] = []
    by_prod: Dict[str, Dict[str, Any]] = {}
    for node_id, (kind, acts, self_ns, examined, emitted) in snap.nodes.items():
        prod = owner.get(node_id, "?")
        self_ms = self_ns / _NS_PER_MS
        nodes.append({
            "node_id": node_id, "kind": kind, "production": prod,
            "activations": acts, "self_ms": self_ms,
            "examined": examined, "emitted": emitted,
        })
        row = by_prod.get(prod)
        if row is None:
            by_prod[prod] = {"production": prod, "activations": acts,
                             "self_ms": self_ms, "examined": examined}
        else:
            row["activations"] += acts
            row["self_ms"] += self_ms
            row["examined"] += examined

    locks = [
        {"label": label, "acquires": acquires, "contended": contended,
         "contention_ratio": contended / acquires if acquires else 0.0,
         "wait_ms": wait_ns / _NS_PER_MS, "hold_ms": hold_ns / _NS_PER_MS}
        for label, (acquires, contended, wait_ns, hold_ns) in sorted(snap.locks.items())
    ]

    phases: Dict[str, Dict[str, Any]] = {}
    for _t0, dur, _cat, name, _args in snap.spans_by_cat("phase"):
        row = phases.get(name)
        if row is None:
            phases[name] = {"phase": name, "count": 1, "total_ms": dur / _NS_PER_MS}
        else:
            row["count"] += 1
            row["total_ms"] += dur / _NS_PER_MS

    def hottest(rows, key):
        return sorted(rows, key=lambda r: r[key], reverse=True)

    return {
        "phases": hottest(phases.values(), "total_ms"),
        "productions": hottest(by_prod.values(), "self_ms"),
        "nodes": hottest(nodes, "self_ms"),
        "locks": hottest(locks, "wait_ms"),
        "counters": dict(snap.counters),
        # Every activation is one node's; the productions table sums to
        # the same total, one row per owner.
        "total_activations": sum(row["activations"] for row in nodes),
        "dropped": snap.dropped,
    }


def render_text(prof: Dict[str, Any], limit: int = 15) -> str:
    """Human-readable hot-spot report of a :func:`build` document,
    hottest entries first."""
    lines: List[str] = []

    def table(title, header, row, rows, shown=None, footer=()):
        if rows:
            lines.extend([title, "  " + header])
            lines.extend("  " + row.format(**r) for r in rows[:shown])
            lines.extend([*footer, ""])

    table("phases (recognize-act cycle):",
          f"{'phase':<16} {'count':>8} {'total ms':>10}",
          "{phase:<16} {count:>8} {total_ms:>10.2f}", prof["phases"])
    table(f"hot productions (top {limit}):",
          f"{'production':<28} {'activations':>11} {'self ms':>9} {'examined':>9}",
          "{production:<28} {activations:>11} {self_ms:>9.2f} {examined:>9}",
          prof["productions"], limit,
          [f"  total activations: {prof['total_activations']}"])
    table(f"hot nodes (top {limit}):",
          f"{'node':>6} {'kind':<5} {'production':<28} "
          f"{'activations':>11} {'self ms':>9} {'examined':>9} {'emitted':>8}",
          "{node_id:>6} {kind:<5} {production:<28} "
          "{activations:>11} {self_ms:>9.2f} {examined:>9} {emitted:>8}",
          prof["nodes"], limit)
    table("lock contention:",
          f"{'lock':<12} {'acquires':>9} {'contended':>9} {'ratio':>7} "
          f"{'wait ms':>9} {'hold ms':>9}",
          "{label:<12} {acquires:>9} {contended:>9} "
          "{contention_ratio:>7.3f} {wait_ms:>9.2f} {hold_ms:>9.2f}",
          prof["locks"])
    if prof["counters"]:
        lines.append("counters:")
        lines.extend(f"  {name:<28} {n}" for name, n in sorted(prof["counters"].items()))
        lines.append("")
    if prof["dropped"]:
        lines.append(f"dropped spans (buffer cap): {prof['dropped']}")
    return "\n".join(lines).rstrip() or "(no events recorded)"
