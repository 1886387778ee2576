"""Trajectory persistence and rendering.

``benchmarks/trajectory.jsonl`` is the repo's append-only perf history:
one JSON line per ``repro bench run``, carrying the run's identity,
every metric median, and which metrics are headline.  The full
per-sample/per-profile detail lives in the ``BENCH_<runid>.json``
artifact the line points at — the trajectory is the index, the
artifacts are the evidence.

``render_markdown`` turns the trajectory into the summary table
``repro bench report`` prints: one row per run, one column per headline
metric, plus a latest-vs-previous movement section.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from ..cli import Verb


def trajectory_entry(doc: Dict[str, Any], artifact: str) -> Dict[str, Any]:
    """The trajectory line summarizing one BENCH document."""
    metrics: Dict[str, float] = {}
    headline: List[str] = []
    for sid, scenario in sorted(doc.get("scenarios", {}).items()):
        for name, stats in sorted(scenario.get("metrics", {}).items()):
            key = f"{sid}.{name}"
            metrics[key] = stats["median"]
            if stats.get("headline"):
                headline.append(key)
    return {
        "runid": doc["runid"],
        "created": doc["created"],
        "created_unix": doc["created_unix"],
        "suite": doc["suite"],
        "artifact": artifact,
        "headline": headline,
        "metrics": metrics,
    }


def append_trajectory(path: str, entry: Dict[str, Any]) -> None:
    """Append one line; creates the file (and directory) on first use."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_trajectory(path: str) -> List[Dict[str, Any]]:
    """All entries, oldest first.  Missing file = empty history."""
    if not os.path.exists(path):
        return []
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad trajectory line: {exc}"
                ) from None
            if not isinstance(entry, dict) or "runid" not in entry:
                raise ValueError(f"{path}:{lineno}: not a trajectory entry")
            entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}"


def render_markdown(entries: List[Dict[str, Any]], limit: int = 20) -> str:
    """The trajectory as a markdown summary (most recent runs last)."""
    lines = ["# Performance trajectory", ""]
    if not entries:
        lines.append("No recorded runs yet — start with `repro bench run`.")
        return "\n".join(lines) + "\n"
    window = entries[-limit:]
    # Headline columns: latest declaration wins, so renamed metrics age
    # out of the table without rewriting history.
    columns = list(window[-1].get("headline", []))
    if not columns:
        columns = sorted(window[-1].get("metrics", {}))[:6]
    header = ["run", "date", "suite"] + columns
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for entry in window:
        row = [
            str(entry.get("runid", "?")),
            str(entry.get("created", "?")),
            str(entry.get("suite", "?")),
        ] + [_fmt(entry.get("metrics", {}).get(col)) for col in columns]
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    if len(window) >= 2:
        prev, last = window[-2], window[-1]
        lines.append(
            f"## Movement: {prev.get('runid')} → {last.get('runid')}"
        )
        lines.append("")
        for col in columns:
            b = prev.get("metrics", {}).get(col)
            c = last.get("metrics", {}).get(col)
            if b is None or c is None:
                lines.append(f"- `{col}`: {_fmt(b)} → {_fmt(c)}")
                continue
            pct = ((c - b) / b * 100.0) if b else 0.0
            lines.append(f"- `{col}`: {_fmt(b)} → {_fmt(c)} ({pct:+.1f}%)")
        lines.append("")
        lines.append(
            "Run `repro bench compare` for the tolerance-aware "
            "classification and hot-spot attribution."
        )
    return "\n".join(lines).rstrip() + "\n"


def render_run_text(doc: Dict[str, Any], path: str) -> str:
    """Console summary of one completed run (what ``bench run`` prints)."""
    lines = [
        f"bench run {doc['runid']} suite={doc['suite']} "
        f"({len(doc['scenarios'])} scenarios)"
    ]
    for sid, scenario in sorted(doc["scenarios"].items()):
        if scenario.get("skipped"):
            lines.append(f"  {sid}: SKIPPED — {scenario['skipped']}")
            continue
        lines.append(
            f"  {sid}: repeat={scenario['repeat']} warmup={scenario['warmup']}"
        )
        for name, stats in sorted(scenario["metrics"].items()):
            marker = "*" if stats.get("headline") else " "
            stable = " [stable]" if stats.get("stable") else ""
            lines.append(
                f"   {marker}{name:<28} {stats['median']:>12.5g} "
                f"{stats['unit']:<6} mad={stats['mad']:.3g}{stable}"
            )
        ratio = scenario.get("counters", {}).get("lock_contention_ratio")
        if ratio is not None:
            lines.append(f"    lock contention ratio: {ratio:.3f}")
        dropped = scenario.get("counters", {}).get("dropped_events", 0)
        if dropped:
            lines.append(f"    dropped obs events: {int(dropped)}")
    lines.append(f"artifact: {path}")
    return "\n".join(lines)


def _add_arguments(p) -> None:
    p.add_argument("--out-dir", default="benchmarks")
    p.add_argument("--limit", type=int, default=20, help="most recent runs shown")
    p.add_argument("--out", metavar="FILE",
                   help="write the markdown here instead of stdout")


def _run(args) -> int:
    entries = load_trajectory(os.path.join(args.out_dir, "trajectory.jsonl"))
    text = render_markdown(entries, limit=args.limit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(entries)} runs)")
    else:
        print(text, end="")
    return 0


VERBS = {"report": Verb(
    "report", "Render the trajectory.jsonl history as markdown.", _add_arguments, _run,
)}
