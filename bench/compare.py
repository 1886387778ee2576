#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``.

    python bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the wider of
the two sides' spreads (distance between the quartiles of a side's
runs as a share of their median — one run that fell into a bad minute
of the host does not widen it), the metric's bound from
``BENCHMARK.json`` and a verdict for B against A:

``worse``       B's median is worse than A's by more than the bound
``better``      every run of B reads better than every run of A
``unresolved``  neither, and a side's spread is wider than the bound
``same``        neither, and both spreads are within the bound

Exits 1 on any ``worse`` row or any increase in ``failed_share``.
Two runs of one commit must give no ``worse`` and no ``unresolved``
row and identical exact counts; a change is read against its parent
with the same command.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _iqr(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q3 - q1


def verdict(a: Dict[str, object], b: Dict[str, object], better: str,
            bound: float) -> Dict[str, object]:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(_iqr(s["samples"]) / s["median"] for s in (a, b))
    if better == "lower":
        apart = max(b["samples"]) < min(a["samples"])
    else:
        apart = min(b["samples"]) > max(a["samples"])
    if worse_by > bound:
        word = "worse"
    elif apart:
        word = "better"
    elif spread > bound:
        word = "unresolved"
    else:
        word = "same"
    return {"worse_by": worse_by, "spread": spread, "verdict": word}


def compare(a: Dict[str, object], b: Dict[str, object],
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for d in spec["end_to_end"]:
            sa = entry_a["end_to_end"].get(d["name"])
            sb = entry_b["end_to_end"].get(d["name"])
            if sa is None or sb is None:
                continue
            row = verdict(sa, sb, d["better"], d["bound"])
            row.update(workload=name, metric=d["name"], unit=d["unit"],
                       a=sa["median"], b=sb["median"], bound=d["bound"])
            rows.append(row)
        failed = {"workload": name, "metric": "failed_share", "unit": "ratio",
                  "a": entry_a["failed_share"], "b": entry_b["failed_share"],
                  "bound": 0.0, "spread": 0.0,
                  "worse_by": entry_b["failed_share"] - entry_a["failed_share"]}
        failed["verdict"] = "worse" if failed["worse_by"] > 0 else "same"
        rows.append(failed)
    return rows


def exact_differences(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Exact counts that are not one value across every run of both files."""
    notes = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name, {"exact": []})
        seen: Dict[str, set] = {}
        for counts in entry_a["exact"] + entry_b["exact"]:
            for key, value in counts.items():
                seen.setdefault(key, set()).add(value)
        notes.extend(f"{name}: {key} takes {sorted(values)}"
                     for key, values in seen.items() if len(values) > 1)
    return notes


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':14} {'metric':12} {'A':>11} {'B':>11} {'B worse by':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:14} {r['metric']:12} {r['a']:11.5g} {r['b']:11.5g} "
              f"{r['worse_by']:+10.1%} {r['spread']:7.1%} {r['bound']:6.0%}  "
              f"{r['verdict']}")
    notes = exact_differences(a, b)
    print("exact counts:", "identical in every run" if not notes else "")
    for note in notes:
        print("  " + note)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
