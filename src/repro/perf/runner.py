"""Runs the scenario registry and emits BENCH artifacts.

One :func:`run_suite` call runs every selected scenario exactly once —
each value is a deterministic function of the tree, so there is nothing
to warm up, repeat or average — and writes the result atomically as
``BENCH_smoke.json`` (every scenario) or ``BENCH_custom.json`` (an
explicit ``--scenario`` list; see docs/PERF.md).  A profiled scenario's
one run happens with the obs bus **on**, and the per-node counts it
gathers are stored beside the metrics: when a counter later moves,
``bench compare`` names the node and production from the two artifacts
alone.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from ..cli import Verb
from ..obs import events as obs_events
from ..obs import profile as obs_profile
from .scenarios import Scenario, select
from .schema import SCHEMA_ID, dumps


def _run_scenario(scenario: Scenario) -> Dict[str, Any]:
    """The one run of a scenario, as its artifact entry."""
    entry: Dict[str, Any] = {"title": scenario.title, "metrics": {}}
    if scenario.precondition is not None:
        reason = scenario.precondition()
        if reason is not None:
            # Skipped-with-reason: the entry records *why* instead of
            # pretending a measurement happened.
            entry["skipped"] = reason
            return entry

    if scenario.profiled:
        obs_events.reset()
        obs_events.enable()
        try:
            result = scenario.run()
        finally:
            snap = obs_events.snapshot()
            obs_events.disable()
            obs_events.reset()
    else:
        result = scenario.run()

    if set(result.metrics) != set(scenario.metrics):
        raise ValueError(
            f"scenario {scenario.scenario_id!r} produced metrics "
            f"{sorted(result.metrics)} but declares {sorted(scenario.metrics)}"
        )
    entry["metrics"] = {k: float(v) for k, v in result.metrics.items()}
    if scenario.profiled:
        nodes = obs_profile.build(snap, network=result.network).nodes
        entry["profile"] = sorted(
            [r.node_id, r.kind, r.production, r.activations, r.examined,
             r.emitted]
            for r in nodes
        )
    return entry


def run_suite(
    scenario_ids: Optional[Tuple[str, ...]] = None,
    out_dir: str = "bench-out",
    registry: Optional[Dict[str, Scenario]] = None,
) -> Tuple[Dict[str, Any], str]:
    """Run every registered scenario, the ``scenario_ids`` alone, or
    ``registry`` in place of the registry; returns ``(document,
    artifact path)``."""
    suite = "custom" if scenario_ids else "smoke"
    if registry is None:
        registry = select(scenario_ids)
    doc: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "suite": suite,
        "scenarios": {
            sid: _run_scenario(scenario) for sid, scenario in registry.items()
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{suite}.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
    os.replace(tmp, path)
    return doc, path


def render_run_text(doc: Dict[str, Any], path: str) -> str:
    """Console summary of one completed run (what ``bench run`` prints)."""
    lines = [
        f"bench run suite={doc['suite']} ({len(doc['scenarios'])} scenarios)"
    ]
    for sid, scenario in sorted(doc["scenarios"].items()):
        if scenario.get("skipped"):
            lines.append(f"  {sid}: SKIPPED — {scenario['skipped']}")
            continue
        lines.append(f"  {sid}:")
        for name, value in sorted(scenario["metrics"].items()):
            lines.append(f"    {name:<28} {value:>14.8g}")
    lines.append(f"artifact: {path}")
    return "\n".join(lines)


def _add_arguments(p) -> None:
    p.add_argument("--scenario", action="append", default=[], metavar="ID",
                   help="run only this scenario (repeatable; written as "
                        "BENCH_custom.json)")
    p.add_argument("--out-dir", default="bench-out",
                   help="artifact directory (default bench-out; "
                        "`--out-dir benchmarks` regenerates the committed "
                        "baseline)")


def _run(args) -> int:
    doc, path = run_suite(tuple(args.scenario) or None, out_dir=args.out_dir)
    print(render_run_text(doc, path))
    return 0


VERBS = {"run": Verb(
    "run",
    "Run every scenario once and write its deterministic counters (and "
    "per-node count profile) as a byte-stable BENCH_smoke.json.",
    _add_arguments, _run,
)}
