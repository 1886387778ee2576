"""The exact gate: classify every metric of a run against a baseline.

Every value ``repro bench`` emits is a deterministic function of the
tree, so the comparison has no tolerance: a metric is ``same`` (equal),
``changed``, ``added`` (only in the current run), ``removed`` (only in
the baseline) or ``skipped`` (the current host could not run the
scenario, and says why).  Only ``same`` and ``skipped`` pass — a metric
or a whole scenario that appears or vanishes fails the gate until the
baseline is regenerated on purpose.

When a scenario's counter changes, :func:`attribute` diffs the per-node
count profiles stored in the two artifacts and names the movers — the
paper's evidence style: not just "weaver did more work" but *which*
production, and which of its join nodes, by how many activations,
tokens examined and tokens emitted.  Counts only, so the attribution is
the same on every machine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cli import Verb
from .schema import PROFILE_COLUMNS, validate_bench_doc

#: Classification labels, in display order.
CLASSES = ("changed", "added", "removed", "skipped", "same")

#: The classifications that pass the gate.
PASSING = ("same", "skipped")

#: The committed baseline ``bench compare`` gates against by default.
BASELINE = os.path.join("benchmarks", "BENCH_smoke.json")

#: The count columns of a profile row, in ranking order.
_COUNTS = PROFILE_COLUMNS[3:]

Counts = Tuple[int, ...]


@dataclass
class MetricDelta:
    """One metric's movement between baseline and current."""

    scenario: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    classification: str

    @property
    def key(self) -> str:
        return f"{self.scenario}.{self.metric}"


@dataclass
class Mover:
    """A production (with its moved ``nodes``) or one node whose match
    counts differ between the runs; counts are in ``_COUNTS`` order."""

    label: str
    baseline: Counts
    current: Counts
    nodes: List["Mover"] = field(default_factory=list)

    @property
    def deltas(self) -> Counts:
        return tuple(c - b for b, c in zip(self.baseline, self.current))

    def format(self, width: int = 36) -> str:
        return f"{self.label:<{width}} " + "  ".join(
            f"{name} {b} -> {c} ({c - b:+d})"
            for name, b, c in zip(_COUNTS, self.baseline, self.current)
        )


@dataclass
class CompareResult:
    """Everything one baseline-vs-current comparison produced."""

    deltas: List[MetricDelta] = field(default_factory=list)
    #: scenario id -> reason the current host skipped it
    skipped: Dict[str, str] = field(default_factory=dict)
    #: scenario id -> top profile movers (only for changed scenarios)
    movers: Dict[str, List[Mover]] = field(default_factory=dict)

    @property
    def failures(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.classification not in PASSING]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> Dict[str, int]:
        out = {cls: 0 for cls in CLASSES}
        for d in self.deltas:
            out[d.classification] += 1
        return out

    def format(self) -> str:
        lines = [f"  {'metric':<48} {'baseline':>19} {'current':>19}  class"]

        def fmt(v: Optional[float]) -> str:
            # repr, not a rounded format: a changed value must look changed
            if v is None:
                return "-"
            return str(int(v)) if float(v).is_integer() else repr(v)

        order = {cls: i for i, cls in enumerate(CLASSES)}
        for d in sorted(self.deltas,
                        key=lambda d: (order[d.classification], d.key)):
            lines.append(
                f"  {d.key:<48} {fmt(d.baseline):>19} {fmt(d.current):>19}"
                f"  {d.classification}"
            )
        counts = self.counts()
        lines.append(
            "  summary: " + " ".join(f"{cls}={counts[cls]}" for cls in CLASSES)
        )
        for scenario_id, reason in sorted(self.skipped.items()):
            lines.append(f"  skipped {scenario_id!r}: {reason}")
        for scenario_id, movers in sorted(self.movers.items()):
            lines.append(f"  movers for {scenario_id!r} (changed):")
            if not movers:
                lines.append("    (no profile recorded in one of the runs)")
            for mover in movers:
                lines.append(f"    {mover.format()}")
                lines.extend(f"      {node.format(34)}" for node in mover.nodes)
        lines.append(
            "result: "
            + ("OK (every metric same or skipped)" if self.ok
               else f"FAILED ({len(self.failures)} metrics not same)")
        )
        return "\n".join(lines)


def _top(movers: List[Mover], limit: int) -> List[Mover]:
    """The ``limit`` largest movers: by activation delta, then tokens
    examined, then tokens emitted (absolute), then label."""
    moved = [m for m in movers if m.baseline != m.current]
    moved.sort(key=lambda m: ([-abs(d) for d in m.deltas], m.label))
    return moved[:limit]


def attribute(
    base_scenario: Dict[str, Any],
    cur_scenario: Dict[str, Any],
    limit: int = 5,
    node_limit: int = 3,
) -> List[Mover]:
    """Top production movers between two scenario entries, each with
    its own top node movers; empty when either side has no profile."""
    if "profile" not in base_scenario or "profile" not in cur_scenario:
        return []
    zero = (0,) * len(_COUNTS)
    #: production -> (node id, kind) -> [baseline counts, current counts]
    by_production: Dict[str, Dict[Tuple[int, str], List[Counts]]] = {}
    for side, scenario in enumerate((base_scenario, cur_scenario)):
        for node_id, kind, production, *counts in scenario["profile"]:
            nodes = by_production.setdefault(production, {})
            nodes.setdefault((node_id, kind), [zero, zero])[side] = tuple(counts)
    movers = []
    for production, nodes in by_production.items():
        node_movers = [
            Mover(f"#{node_id} {kind}", base, cur)
            for (node_id, kind), (base, cur) in nodes.items()
        ]
        movers.append(Mover(
            production,
            tuple(map(sum, zip(*(m.baseline for m in node_movers)))),
            tuple(map(sum, zip(*(m.current for m in node_movers)))),
            _top(node_movers, node_limit),
        ))
    return _top(movers, limit)


def _classify(
    baseline: Optional[float], current: Optional[float], skipped: bool
) -> str:
    if skipped:
        return "skipped"
    if baseline is None:
        return "added"
    if current is None:
        return "removed"
    return "same" if baseline == current else "changed"


def compare_docs(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    movers_limit: int = 5,
) -> CompareResult:
    """Compare two BENCH documents (validated here)."""
    for label, doc in (("baseline", baseline), ("current", current)):
        problems = validate_bench_doc(doc)
        if problems:
            raise ValueError(f"{label} artifact invalid: {problems[0]}")
    result = CompareResult()
    base_scenarios = baseline["scenarios"]
    cur_scenarios = current["scenarios"]
    for sid in sorted(set(base_scenarios) | set(cur_scenarios)):
        base_entry = base_scenarios.get(sid, {})
        cur_entry = cur_scenarios.get(sid, {})
        base_metrics = base_entry.get("metrics", {})
        cur_metrics = cur_entry.get("metrics", {})
        reason = cur_entry.get("skipped")
        if reason:
            result.skipped[sid] = reason
        changed = False
        for name in sorted(set(base_metrics) | set(cur_metrics)):
            base, cur = base_metrics.get(name), cur_metrics.get(name)
            label = _classify(base, cur, bool(reason))
            result.deltas.append(MetricDelta(sid, name, base, cur, label))
            changed = changed or label == "changed"
        if changed:
            result.movers[sid] = attribute(base_entry, cur_entry, movers_limit)
    return result


def load_doc(path: str) -> Dict[str, Any]:
    """Read and schema-validate one artifact file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    problems = validate_bench_doc(doc)
    if problems:
        raise ValueError(f"{path} failed schema validation: {problems[0]}")
    return doc


def _add_arguments(p) -> None:
    p.add_argument("--out-dir", default="bench-out",
                   help="where `bench run` wrote the current artifact")
    p.add_argument("--baseline", default=BASELINE, metavar="PATH",
                   help=f"baseline artifact (default: the committed {BASELINE})")
    p.add_argument("--current", metavar="PATH",
                   help="current artifact (default: OUT_DIR/BENCH_smoke.json)")
    p.add_argument("--movers", type=int, default=5,
                   help="productions listed per changed scenario")


def _run(args) -> int:
    current = args.current or os.path.join(
        args.out_dir, os.path.basename(BASELINE))
    result = compare_docs(
        load_doc(args.baseline), load_doc(current), movers_limit=args.movers
    )
    print(f"bench compare: baseline {args.baseline} -> current {current}")
    print(result.format())
    return 0 if result.ok else 1


VERBS = {"compare": Verb(
    "compare",
    "Compare every counter of a run exactly against a baseline (default: the "
    "committed one) and name the productions and nodes whose match counts "
    "moved; exit 1 unless every metric is same or its scenario skipped.",
    _add_arguments, _run,
)}
