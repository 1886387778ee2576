#!/usr/bin/env python3
"""The end-to-end + per-layer benchmark: one command for every metric.

Two ways in, one measurement underneath:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, in this process, for about S seconds.  Prints one
    JSON object as the last line of standard output: the end-to-end
    metrics (``--trace 0``, wrappers off) or the per-layer metrics
    (``--trace 1``, the span proxies installed on alternate
    repetitions).  This is the contract ``BENCHMARK.json`` declares.

``run.py [--workload W ...] [--reps 5] [--seed 1988] [--out FILE] [--no-trace]``
    The whole suite: every repetition is a fresh child process running
    the command above, one child at a time, repetitions interleaved
    round-robin across workloads, then one traced child per workload.
    Prints every metric by name with its unit, writes the result JSON
    (and the spans beside it), and exits non-zero on any failed check.

``run.py --write-golden`` rewrites ``bench/golden/`` from the
sequential engine; it is run once, when a workload is defined.

The names, units, directions and bounds of the metrics live in
``BENCHMARK.json`` at the root of the repository and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A workload still running this long after its measuring time is hung:
#: it is interrupted from inside (so that it reaps its server or workers
#: and still reports), and a child that does not even do that is killed
#: with its process group a little later.
HANG_AFTER_S = 120
KILL_AFTER_S = 150

RSS_SCOPES = {"self": resource.RUSAGE_SELF, "children": resource.RUSAGE_CHILDREN}


def declared() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workloads():
    """Import the system under test; returns (workloads module, seconds)."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    began = perf_counter()
    import workloads
    return workloads, perf_counter() - began


def refuse_if_instrumented() -> None:
    """Timing with the obs bus or the meter on would time the instruments."""
    from repro.obs import events, meter
    if events.enabled() or meter.ENABLED:
        raise SystemExit("bench: refusing to time: the obs bus or the meter is enabled")


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on a single CPU.

    The VMs this runs on are throttled when both vCPUs are busy (steal
    of up to 50 %), which made the two multi-process workloads swing by
    a factor of 2 to 4 from one run to the next; sharing one CPU they
    repeat within 3 %.  What is measured is then the work the program
    does — CPU, pipe and socket traffic, context switches — not the
    hypervisor's scheduling of a second vCPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Hung(Exception):
    pass


def _alarm(_signum, _frame):
    raise Hung("workload exceeded its time limit")


def peak_rss_mb(scopes) -> float:
    return sum(resource.getrusage(RSS_SCOPES[s]).ru_maxrss for s in scopes) / 1024


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    spec = declared()
    workloads, import_s = load_workloads()
    if len(args.workload) != 1 or args.workload[0] not in workloads.NAMES:
        raise SystemExit(f"bench: --trace needs one --workload of {', '.join(workloads.NAMES)}")
    name = args.workload[0]
    refuse_if_instrumented()
    pin_to_one_cpu()
    from measure import Measurement, median, percentile, step_profile

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(int(args.seconds) + HANG_AFTER_S)
    try:
        m = workloads.measure(name, args.seed, args.seconds, bool(args.trace),
                              quick=args.quick, golden_dir=args.golden_dir)
    except Hung as exc:
        m = Measurement(attempted=1, failed=1, failures=[str(exc)])
    finally:
        signal.alarm(0)

    units = {d["name"]: d["unit"]
             for d in spec["per_layer" if args.trace else "end_to_end"]}
    if not m.run:
        values = {}
    elif args.trace:
        # A layer the workload does not run reports 0.
        values = dict.fromkeys(units, 0.0)
        values.update(m.layers)
        values["bench.import_s"] = import_s
    else:
        steps = step_profile(m.kept(m.steps))
        values = {
            "setup_s": median(m.setup),
            "run_s": m.run_s,
            "step_p50_ms": percentile(steps, 50) * 1e3,
            "step_p95_ms": percentile(steps, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb(m.rss_scopes),
        }
    if values and set(values) != set(units):
        raise SystemExit("bench: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    attempted = max(1, m.attempted)
    failed = min(attempted, m.failed)
    result = {
        "correct": failed == 0 and bool(m.run),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    if args.detail:
        detail = dict(result, workload=name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, failures=m.failures, exact=m.exact,
                      rates=m.rates, setup=m.setup, run=m.run, speed=m.speed,
                      clean=m.clean, spans=m.spans)
        Path(args.detail).write_text(json.dumps(detail))
    for message in m.failures:
        print(f"bench: {name}: FAILED: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# the suite: children, round-robin
# ---------------------------------------------------------------------------


def child(name: str, args, trace: int, scratch: Path) -> Dict[str, object]:
    """One repetition in a fresh process; never outlives its limit."""
    detail = scratch / f"{name}.{trace}.json"
    detail.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--detail", str(detail),
           "--golden-dir", str(args.golden_dir)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=args.seconds + KILL_AFTER_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:  # the child's own children (server, mp workers) go with it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if detail.exists():
        return json.loads(detail.read_text())
    return {"attempted": 1, "failed": 1, "metrics": {}, "exact": {}, "rates": {},
            "failures": [f"child exited {proc.returncode} without a result"],
            "setup": [], "run": [], "speed": [], "clean": [], "spans": []}


def summarise(values: List[float], unit: str) -> Dict[str, object]:
    from measure import median
    return {"unit": unit, "median": median(values), "min": min(values),
            "max": max(values), "n": len(values), "samples": values}


def host_record(args) -> Dict[str, object]:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha or "unknown",
            "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
            "quick": args.quick}


def run_suite(args) -> int:
    spec = declared()
    workloads, _import_s = load_workloads()
    names = args.workload or list(workloads.NAMES)
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        raise SystemExit(f"bench: unknown workload(s) {unknown}")
    runs: Dict[str, List[dict]] = {n: [] for n in names}
    traced: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as tmp:
        scratch = Path(tmp)
        for rep in range(args.reps):
            for name in names:
                print(f"bench: rep {rep + 1}/{args.reps} {name}", file=sys.stderr)
                runs[name].append(child(name, args, 0, scratch))
        if not args.no_trace:
            for name in names:
                print(f"bench: traced {name}", file=sys.stderr)
                traced[name] = child(name, args, 1, scratch)

    report = {"schema": "repro.bench/1", "host": host_record(args), "workloads": {}}
    spans = {}
    for name in names:
        reps = runs[name] + ([traced[name]] if name in traced else [])
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "failures": [f for r in reps for f in r["failures"]],
            "exact": [r["exact"] for r in reps],
            "rates": runs[name][0]["rates"],
            # What each child saw, repetition by repetition.
            "reps": [{k: r[k] for k in ("setup", "run", "speed", "clean")}
                     for r in runs[name]],
            "end_to_end": {},
            "per_layer": traced.get(name, {}).get("metrics", {}),
        }
        for d in spec["end_to_end"]:
            values = [r["metrics"][d["name"]]["value"]
                      for r in runs[name] if d["name"] in r["metrics"]]
            if values:
                entry["end_to_end"][d["name"]] = summarise(values, d["unit"])
        report["workloads"][name] = entry
        if name in traced:
            spans[name] = traced[name]["spans"]

    print_report(report, spec)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        if spans:
            out.with_suffix(".spans.json").write_text(json.dumps(spans))
    bad = [n for n, e in report["workloads"].items() if e["failed"]]
    for name in bad:
        for failure in report["workloads"][name]["failures"][:3]:
            print(f"bench: {name}: FAILED: {failure}", file=sys.stderr)
    return 1 if bad else 0


def print_report(report: Dict[str, object], spec: Dict[str, object]) -> None:
    entries = report["workloads"]
    e2e = [(d["name"], d["unit"]) for d in spec["end_to_end"]]
    head = ["workload"] + [f"{n}[{u}]" for n, u in e2e] + ["failed_share", "rate"]
    rows = []
    for name, entry in entries.items():
        cells = [name]
        for metric, _unit in e2e:
            s = entry["end_to_end"].get(metric)
            cells.append(f"{s['median']:.4g} ({s['min']:.4g}-{s['max']:.4g} n={s['n']})"
                         if s else "-")
        cells.append(f"{entry['failed_share']:.3g}")
        cells.append(" ".join(f"{k}={v:.0f}" for k, v in entry["rates"].items()))
        rows.append(cells)
    _table(head, rows)
    layered = [n for n in entries if entries[n]["per_layer"]]
    if layered:
        print()
        rows = [[f"{d['name']}[{d['unit']}]"]
                + [f"{entries[n]['per_layer'][d['name']]['value']:.4g}" for n in layered]
                for d in spec["per_layer"]]
        _table(["layer metric"] + layered, rows)


def _table(head: List[str], rows: List[List[str]]) -> None:
    widths = [max(len(r[i]) for r in [head] + rows) for i in range(len(head))]
    for row in [head] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seed", type=int, default=1988)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="run one workload in this process and print its result line")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", default=None)
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--quick", action="store_true", help="the self-test size table")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--golden-dir", type=Path, default=HERE / "golden")
    ap.add_argument("--detail", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.write_golden:
        workloads, _import_s = load_workloads()
        for name in args.workload or workloads.NAMES:
            print(workloads.write_golden(name, args.seed, args.quick, args.golden_dir))
        return 0
    if args.trace is not None:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
