"""Executes scenario suites and emits BENCH artifacts.

One :func:`run_suite` call is one observatory *run*: every selected
scenario is warmed up, repeated N times with the obs bus **off** (so
wall metrics are clean), then — for profiled scenarios — run once more
with the bus **on** to capture the hot-spot profile the compare engine
uses for regression attribution.  Samples are reduced to median/MAD
(robust to a single noisy repetition), and the whole run is written
atomically as ``BENCH_<runid>.json`` plus one appended line in
``trajectory.jsonl`` (see docs/PERF.md).

Stable-only scenarios (simulated instruction counts and other
deterministic metrics) run a single repetition regardless of
``repeat`` — re-measuring a deterministic quantity buys nothing.
"""

from __future__ import annotations

import json
import os
import platform
import re
import secrets
import time
from typing import Any, Dict, List, Optional, Tuple

from ..cli import Verb
from ..obs import events as obs_events
from ..obs import profile as obs_profile
from .scenarios import SCENARIOS, Scenario, select
from .schema import SCHEMA_ID

#: Profile rows kept per section in the artifact (hottest first).
PROFILE_ROWS = 12

_RUNID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def make_runid() -> str:
    """Sortable timestamp plus a short random suffix."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + secrets.token_hex(2)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: List[float], center: float) -> float:
    return _median([abs(v - center) for v in values])


def _atomic_write_json(path: str, doc: Any) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _profile_doc(profile) -> Dict[str, Any]:
    """Truncated, JSON-ready hot-spot tables for the artifact."""
    full = obs_profile.to_json(profile)
    return {
        "nodes": full["nodes"][:PROFILE_ROWS],
        "locks": full["locks"][:PROFILE_ROWS],
        "productions": full["productions"][:PROFILE_ROWS],
        "total_activations": full["total_activations"],
        "dropped": full["dropped"],
    }


def _obs_counters(profile) -> Dict[str, float]:
    """Bus-derived scalars worth trending alongside the metrics."""
    counters: Dict[str, float] = {
        f"obs.{name}": float(n) for name, n in sorted(profile.counters.items())
    }
    acquires = sum(row.acquires for row in profile.locks)
    contended = sum(row.contended for row in profile.locks)
    if acquires:
        counters["lock_acquires"] = float(acquires)
        counters["lock_contention_ratio"] = contended / acquires
    counters["dropped_events"] = float(profile.dropped)
    return counters


def _run_scenario(
    scenario: Scenario, repeat: int, warmup: int
) -> Dict[str, Any]:
    """All repetitions of one scenario, reduced to its artifact entry."""
    if scenario.precondition is not None:
        reason = scenario.precondition()
        if reason is not None:
            # Skipped-with-reason: the entry records *why* instead of
            # pretending a measurement happened; compare treats the
            # missing metrics as added/removed, which never gates.
            return {
                "title": scenario.title,
                "repeat": 0,
                "warmup": 0,
                "skipped": reason,
                "metrics": {},
                "counters": {},
                "profile": None,
            }

    effective_repeat = 1 if scenario.stable_only else (scenario.repeat or repeat)
    effective_warmup = 0 if scenario.stable_only else warmup

    for _ in range(effective_warmup):
        scenario.run()

    samples: Dict[str, List[float]] = {}
    for _ in range(effective_repeat):
        rep = scenario.run()
        produced = set(rep.metrics)
        declared = {spec.name for spec in scenario.specs}
        if produced != declared:
            raise ValueError(
                f"scenario {scenario.scenario_id!r} produced metrics "
                f"{sorted(produced)} but declares {sorted(declared)}"
            )
        for name, value in rep.metrics.items():
            samples.setdefault(name, []).append(float(value))

    entry: Dict[str, Any] = {
        "title": scenario.title,
        "repeat": effective_repeat,
        "warmup": effective_warmup,
        "metrics": {},
        "counters": {},
        "profile": None,
    }
    for spec in scenario.specs:
        values = samples[spec.name]
        median = _median(values)
        entry["metrics"][spec.name] = {
            "samples": values,
            "median": median,
            "mad": _mad(values, median),
            "unit": spec.unit,
            "direction": spec.direction,
            "rel_tol": spec.rel_tol,
            "abs_tol": spec.abs_tol,
            "stable": spec.stable,
            "headline": spec.headline,
        }

    if scenario.profiled:
        obs_events.reset()
        obs_events.enable()
        try:
            rep = scenario.run()
        finally:
            snap = obs_events.snapshot()
            obs_events.disable()
            obs_events.reset()
        profile = obs_profile.build(snap, network=rep.network)
        entry["profile"] = _profile_doc(profile)
        entry["counters"] = _obs_counters(profile)
    return entry


def run_suite(
    suite: str = "smoke",
    scenario_ids: Optional[Tuple[str, ...]] = None,
    repeat: int = 5,
    warmup: int = 1,
    out_dir: str = "benchmarks",
    runid: Optional[str] = None,
    note: str = "",
    trajectory: bool = True,
    registry: Optional[Dict[str, Scenario]] = None,
) -> Tuple[Dict[str, Any], str]:
    """Run a suite; returns ``(document, artifact path)``.

    The artifact is written atomically; with ``trajectory=True`` a
    summary line is appended to ``<out_dir>/trajectory.jsonl``.
    """
    if repeat < 1 or warmup < 0:
        raise ValueError("repeat must be >= 1 and warmup >= 0")
    runid = runid or make_runid()
    if not _RUNID_RE.match(runid):
        raise ValueError(f"bad runid {runid!r}")
    if registry is None:
        registry = SCENARIOS
        selected = select(suite=suite, scenario_ids=scenario_ids)
    else:
        selected = registry

    doc: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "runid": runid,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "created_unix": time.time(),
        "suite": suite if not scenario_ids else "custom",
        "note": note,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
        },
        "scenarios": {},
    }
    for sid, scenario in selected.items():
        doc["scenarios"][sid] = _run_scenario(scenario, repeat, warmup)

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{runid}.json")
    _atomic_write_json(path, doc)
    if trajectory:
        from .report import append_trajectory, trajectory_entry

        append_trajectory(
            os.path.join(out_dir, "trajectory.jsonl"),
            trajectory_entry(doc, artifact=os.path.basename(path)),
        )
    return doc, path


def _add_arguments(p) -> None:
    p.add_argument("--suite", default="smoke", help="smoke | full | all (default smoke)")
    p.add_argument("--scenario", action="append", default=[], metavar="ID",
                   help="run this scenario instead of a suite (repeatable)")
    p.add_argument("--repeat", type=int, default=5,
                   help="timed repetitions per scenario (deterministic "
                        "scenarios always run once)")
    p.add_argument("--warmup", type=int, default=1, help="discarded warm-up repetitions")
    p.add_argument("--out-dir", default="benchmarks",
                   help="artifact + trajectory directory")
    p.add_argument("--runid", help="override the generated run id")
    p.add_argument("--note", default="", help="free-form note stored in the artifact")
    p.add_argument("--no-trajectory", action="store_true",
                   help="write the artifact only; skip the trajectory append")


def _run(args) -> int:
    from .report import render_run_text

    doc, path = run_suite(
        suite=args.suite,
        scenario_ids=tuple(args.scenario) or None,
        repeat=args.repeat,
        warmup=args.warmup,
        out_dir=args.out_dir,
        runid=args.runid,
        note=args.note,
        trajectory=not args.no_trajectory,
    )
    print(render_run_text(doc, path))
    return 0


VERBS = {"run": Verb(
    "run",
    "Execute a scenario suite with warm-up and repetitions, write a schema-"
    "versioned BENCH_<runid>.json artifact, and append to the trajectory.jsonl "
    "history.",
    _add_arguments, _run,
)}
