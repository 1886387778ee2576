"""The regression gate: classify metric movement between two runs.

For every metric present in both BENCH documents the engine computes a
direction-aware noise threshold

    tol = max(abs_tol, rel_tol * |baseline median|,
              NOISE_K * (baseline MAD + current MAD))

and classifies the delta as ``improved`` / ``unchanged`` / ``regressed``
(worse-than-tolerance in the metric's declared *bad* direction).
Metrics present in only one run are ``added`` / ``removed`` — reported,
never gating.  The MAD term adapts the band to each run's measured
noise; single-sample metrics (MAD = 0) fall back to the declared
relative/absolute tolerances alone.

When a scenario regresses, :func:`attribute` diffs its captured
hot-spot profiles (per-node / per-production / per-lock, from
:mod:`repro.obs`) and names the top movers — the paper's evidence
style: not just "tourney slowed down" but *which* join node or hash
line absorbed the time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cli import Verb
from .schema import validate_bench_doc

#: Multiplier on the summed MADs in the noise band.  3 x MAD ~= 2 sigma
#: for Gaussian noise; wall metrics additionally carry wide rel_tols.
NOISE_K = 3.0

#: Classification labels, in display order.
CLASSES = ("regressed", "improved", "unchanged", "added", "removed")


@dataclass
class MetricDelta:
    """One metric's movement between baseline and current."""

    scenario: str
    metric: str
    unit: str
    direction: str
    stable: bool
    baseline: Optional[float]
    current: Optional[float]
    threshold: float
    classification: str

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def key(self) -> str:
        return f"{self.scenario}.{self.metric}"


@dataclass
class Mover:
    """One hot-spot entry whose cost moved between the runs."""

    kind: str  # "node" | "production" | "lock"
    label: str
    baseline_ms: float
    current_ms: float

    @property
    def delta_ms(self) -> float:
        return self.current_ms - self.baseline_ms


@dataclass
class CompareResult:
    """Everything one baseline-vs-current comparison produced."""

    baseline_runid: str
    current_runid: str
    deltas: List[MetricDelta] = field(default_factory=list)
    #: scenario id -> top profile movers (only for regressed scenarios)
    movers: Dict[str, List[Mover]] = field(default_factory=dict)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.classification == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def counts(self) -> Dict[str, int]:
        out = {cls: 0 for cls in CLASSES}
        for d in self.deltas:
            out[d.classification] += 1
        return out

    def format(self) -> str:
        lines = [
            f"bench compare: baseline {self.baseline_runid} -> "
            f"current {self.current_runid}"
        ]
        lines.append(
            f"  {'metric':<44} {'baseline':>12} {'current':>12} "
            f"{'delta':>11} {'tol':>10}  class"
        )

        def fmt(v: Optional[float]) -> str:
            return f"{v:.5g}" if v is not None else "-"

        order = {cls: i for i, cls in enumerate(CLASSES)}
        for d in sorted(self.deltas,
                        key=lambda d: (order[d.classification], d.key)):
            lines.append(
                f"  {d.key:<44} {fmt(d.baseline):>12} {fmt(d.current):>12} "
                f"{fmt(d.delta):>11} {fmt(d.threshold):>10}  {d.classification}"
            )
        counts = self.counts()
        lines.append(
            "  summary: "
            + " ".join(f"{cls}={counts[cls]}" for cls in CLASSES)
        )
        for scenario_id, movers in sorted(self.movers.items()):
            lines.append(f"  hot-spot movers for {scenario_id!r} (regressed):")
            if not movers:
                lines.append("    (no profile recorded in one of the runs)")
            for m in movers:
                lines.append(
                    f"    {m.kind:<10} {m.label:<36} "
                    f"{m.baseline_ms:>9.2f}ms -> {m.current_ms:>9.2f}ms "
                    f"({m.delta_ms:+.2f}ms)"
                )
        lines.append(
            "result: "
            + ("OK (no regressions)" if self.ok
               else f"REGRESSED ({len(self.regressions)} metrics)")
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _classify(
    stats_base: Optional[Dict[str, Any]],
    stats_cur: Optional[Dict[str, Any]],
) -> Tuple[Optional[float], Optional[float], float, str, Dict[str, Any]]:
    """Returns ``(baseline, current, threshold, classification, spec)``
    where ``spec`` is the metric entry declaring unit/direction/tols
    (current run's declaration wins when both exist)."""
    spec = stats_cur or stats_base or {}
    if stats_base is None:
        return None, spec.get("median"), 0.0, "added", spec
    if stats_cur is None:
        return stats_base.get("median"), None, 0.0, "removed", spec
    base = float(stats_base["median"])
    cur = float(stats_cur["median"])
    tol = max(
        float(spec.get("abs_tol", 0.0)),
        float(spec.get("rel_tol", 0.0)) * abs(base),
        NOISE_K * (float(stats_base.get("mad", 0.0))
                   + float(stats_cur.get("mad", 0.0))),
    )
    delta = cur - base
    worse = delta if spec.get("direction", "lower") == "lower" else -delta
    if worse > tol:
        classification = "regressed"
    elif worse < -tol:
        classification = "improved"
    else:
        classification = "unchanged"
    return base, cur, tol, classification, spec


def attribute(
    base_scenario: Dict[str, Any],
    cur_scenario: Dict[str, Any],
    limit: int = 5,
) -> List[Mover]:
    """Top profile movers between two scenario entries, by absolute
    self-time delta (locks: wait-time delta)."""
    base_prof = base_scenario.get("profile") or {}
    cur_prof = cur_scenario.get("profile") or {}
    if not base_prof or not cur_prof:
        return []
    movers: List[Mover] = []

    def diff(section: str, kind: str, key_fn, label_fn, ms_field: str) -> None:
        base_rows = {key_fn(r): r for r in base_prof.get(section, [])}
        cur_rows = {key_fn(r): r for r in cur_prof.get(section, [])}
        for key in set(base_rows) | set(cur_rows):
            b = base_rows.get(key)
            c = cur_rows.get(key)
            base_ms = float(b[ms_field]) if b else 0.0
            cur_ms = float(c[ms_field]) if c else 0.0
            if base_ms == cur_ms:
                continue
            movers.append(
                Mover(kind=kind, label=label_fn(c or b),
                      baseline_ms=base_ms, current_ms=cur_ms)
            )

    diff("nodes", "node",
         lambda r: ("node", r.get("node_id"), r.get("production")),
         lambda r: f"#{r.get('node_id')} {r.get('kind', '?')} "
                   f"{r.get('production', '?')}",
         "self_ms")
    diff("productions", "production",
         lambda r: ("prod", r.get("production")),
         lambda r: str(r.get("production")),
         "self_ms")
    diff("locks", "lock",
         lambda r: ("lock", r.get("label")),
         lambda r: str(r.get("label")),
         "wait_ms")
    movers.sort(key=lambda m: abs(m.delta_ms), reverse=True)
    return movers[:limit]


def compare_docs(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    stable_only: bool = False,
    movers_limit: int = 5,
) -> CompareResult:
    """Compare two validated BENCH documents."""
    for label, doc in (("baseline", baseline), ("current", current)):
        problems = validate_bench_doc(doc)
        if problems:
            raise ValueError(f"{label} artifact invalid: {problems[0]}")
    result = CompareResult(
        baseline_runid=baseline["runid"], current_runid=current["runid"]
    )
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for sid in sorted(set(base_scenarios) | set(cur_scenarios)):
        base_metrics = base_scenarios.get(sid, {}).get("metrics", {})
        cur_metrics = cur_scenarios.get(sid, {}).get("metrics", {})
        scenario_regressed = False
        for name in sorted(set(base_metrics) | set(cur_metrics)):
            stats_base = base_metrics.get(name)
            stats_cur = cur_metrics.get(name)
            spec_probe = stats_cur or stats_base or {}
            if stable_only and not spec_probe.get("stable", False):
                continue
            base, cur, tol, classification, spec = _classify(
                stats_base, stats_cur
            )
            result.deltas.append(
                MetricDelta(
                    scenario=sid,
                    metric=name,
                    unit=str(spec.get("unit", "")),
                    direction=str(spec.get("direction", "lower")),
                    stable=bool(spec.get("stable", False)),
                    baseline=base,
                    current=cur,
                    threshold=tol,
                    classification=classification,
                )
            )
            scenario_regressed = scenario_regressed or (
                classification == "regressed"
            )
        if scenario_regressed:
            result.movers[sid] = attribute(
                base_scenarios.get(sid, {}),
                cur_scenarios.get(sid, {}),
                limit=movers_limit,
            )
    return result


# ---------------------------------------------------------------------------
# Artifact resolution (CLI support)
# ---------------------------------------------------------------------------


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


def resolve_doc(out_dir: str, spec: str) -> Dict[str, Any]:
    """An artifact named by path, runid, ``latest``, or ``prev``.

    ``latest``/``prev`` index the trajectory file (last and next-to-last
    entries); a bare runid is looked up as ``BENCH_<runid>.json`` in
    ``out_dir``.
    """
    if spec.endswith(".json") or os.path.sep in spec:
        return load_doc(spec)
    if spec in ("latest", "prev"):
        from .report import load_trajectory

        entries = load_trajectory(os.path.join(out_dir, "trajectory.jsonl"))
        need = 1 if spec == "latest" else 2
        if len(entries) < need:
            raise ValueError(
                f"trajectory has {len(entries)} run(s); "
                f"{spec!r} needs at least {need}"
            )
        entry = entries[-need]
        return load_doc(os.path.join(out_dir, entry["artifact"]))
    path = os.path.join(out_dir, f"BENCH_{spec}.json")
    if not os.path.exists(path):
        raise ValueError(
            f"no artifact for runid {spec!r} (looked for {path})"
        )
    return load_doc(path)


def _add_arguments(p) -> None:
    p.add_argument("--out-dir", default="benchmarks")
    p.add_argument("--baseline", default="prev",
                   help="runid, artifact path, 'latest', or 'prev' (default: prev)")
    p.add_argument("--current", default="latest",
                   help="runid, artifact path, 'latest', or 'prev' (default: latest)")
    p.add_argument("--stable-only", action="store_true",
                   help="compare deterministic metrics only (cross-machine safe)")
    p.add_argument("--movers", type=int, default=5,
                   help="hot-spot movers listed per regressed scenario")


def _run(args) -> int:
    result = compare_docs(
        resolve_doc(args.out_dir, args.baseline),
        resolve_doc(args.out_dir, args.current),
        stable_only=args.stable_only,
        movers_limit=args.movers,
    )
    print(result.format())
    return 0 if result.ok else 1


VERBS = {"compare": Verb(
    "compare",
    "Classify every metric of a run against a baseline run with MAD-based noise "
    "thresholds and attribute regressions to hot-spot movers; exit 1 on a "
    "regression.",
    _add_arguments, _run,
)}
