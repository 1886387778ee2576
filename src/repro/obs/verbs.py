"""The observability verbs: ``trace``, ``top`` and the ``obs`` group.

``trace``, ``top`` and ``obs flight`` are wrappers around exactly the
run ``repro run`` does (:func:`repro.engines.interpreter_from_args`: the
same program resolver, the same engine flags, the same interpreter) —
with the event bus on, or the flight ring dumped afterwards.  ``obs
stitch`` and ``obs slo`` work offline on saved artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from ..cli import Registry, Verb
from ..engines import add_program_arguments, engine_from_args, interpreter_from_args
from . import events, fabric, flight, meter, profile
from .export import chrome_trace, validate_chrome_trace


def _add_traced_arguments(p: argparse.ArgumentParser) -> None:
    add_program_arguments(p)
    p.add_argument("--max-events", type=int, default=200_000,
                   help="per-worker span buffer cap")
    p.add_argument("--limit", type=int, default=15, help="rows per hot-spot table")


def _traced_run(args: argparse.Namespace):
    """Run one program with the event bus on; returns ``(run result,
    match stats, snapshot, profile)`` — every process of an mp run is
    in the snapshot."""
    if args.max_events < 0:
        raise ValueError(f"--max-events must be >= 0, got {args.max_events}")
    interp = interpreter_from_args(args)
    events.reset()
    events.enable(max_events_per_worker=args.max_events)
    try:
        result = interp.run(max_cycles=args.max_cycles)
        stats = interp.stats
    finally:
        interp.close()
        snap = events.snapshot()
        events.disable()
    return result, stats, snap, profile.build(snap, network=interp.network)


def _add_trace_arguments(p: argparse.ArgumentParser) -> None:
    _add_traced_arguments(p)
    p.add_argument("--out", default="trace.json",
                   help="Chrome-trace JSON output path (Perfetto-loadable)")
    p.add_argument("--fabric-out", metavar="FILE",
                   help="also save the snapshot the trace was rendered from "
                        "(re-render with `repro obs stitch`)")


def _trace(args: argparse.Namespace) -> int:
    result, stats, snap, prof = _traced_run(args)
    doc = chrome_trace(snap)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if args.fabric_out:
        fabric.write_capture(args.fabric_out, snap)
        print(f"fabric capture -> {args.fabric_out}")
    orphans = doc["otherData"].get("stitch_orphans")
    if orphans:
        print(f"warning: {orphans} stitch orphans", file=sys.stderr)
    print(profile.render_text(prof, limit=args.limit))
    agreement = (
        "equal" if prof.total_activations == stats.node_activations else "MISMATCH"
    )
    print()
    print(f"run: cycles={result.cycles} halted={result.halted}")
    print(
        f"profile activations={prof.total_activations} "
        f"match node_activations={stats.node_activations} ({agreement})"
    )
    print(f"trace: {len(doc['traceEvents'])} events -> {args.out}")
    return 0 if agreement == "equal" else 1


def _add_top_arguments(p: argparse.ArgumentParser) -> None:
    _add_traced_arguments(p)
    p.add_argument("--by", choices=["production", "node", "lock", "phase"],
                   default="production")


def _top(args: argparse.Namespace) -> int:
    prof = _traced_run(args)[-1]
    pruned = profile.Profile(
        nodes=prof.nodes if args.by == "node" else [],
        productions=prof.productions if args.by == "production" else [],
        locks=prof.locks if args.by == "lock" else [],
        phases=prof.phases if args.by == "phase" else [],
        dropped=prof.dropped,
    )
    print(profile.render_text(pruned, limit=args.limit))
    return 0


def _add_flight_arguments(p: argparse.ArgumentParser) -> None:
    add_program_arguments(p)
    p.add_argument("--out", default="flight.json", help="flight snapshot output path")
    p.add_argument("--ring", type=int, default=0, metavar="N",
                   help="resize the flight ring to N events first")


def _flight(args: argparse.Namespace) -> int:
    if args.ring:
        flight.configure(args.ring)
    else:
        flight.reset()
    with interpreter_from_args(args) as interp:
        result = interp.run(max_cycles=args.max_cycles)
    doc = flight.write_snapshot(args.out, "cli")
    problems = flight.validate_flight(doc)
    print(
        f"run: engine={engine_from_args(args)[0]} cycles={result.cycles} "
        f"halted={result.halted}"
    )
    print(
        f"flight: {len(doc['events'])} events "
        f"(ring {doc['ring_capacity']}, {doc['recorded_total']} recorded, "
        f"{len(doc.get('workers') or {})} worker tails) -> {args.out}"
    )
    for problem in problems:
        print(f"invalid snapshot: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _add_stitch_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("capture",
                   help="fabric capture file (`repro trace --engine mp --fabric-out`)")
    p.add_argument("--out", default="stitched.json",
                   help="Chrome-trace JSON output path")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _stitch(args: argparse.Namespace) -> int:
    doc = chrome_trace(fabric.load_capture(args.capture))
    problems = validate_chrome_trace(doc)
    for problem in problems:
        print(f"invalid trace: {problem}", file=sys.stderr)
    if problems:
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    pids = sorted({e["pid"] for e in doc["traceEvents"]})
    other = doc["otherData"]
    print(
        f"stitched: {len(doc['traceEvents'])} events across "
        f"{len(pids)} pids ({other.get('fabric_lanes', 0)} worker lanes, "
        f"{other.get('stitch_orphans', 0)} orphans) -> {args.out}"
    )
    return 0


def _add_slo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file",
                   help="meter JSON: `loadgen --meter-out` file or a saved "
                        "`meter` verb response body")
    p.add_argument("--target-ms", type=float, default=None,
                   help="recompute against this latency target instead of the "
                        "snapshot's objectives")
    p.add_argument("--goal", type=float, default=None,
                   help="good fraction for --target-ms (default 0.99)")
    p.add_argument("--max-burn", type=float, default=1.0,
                   help="fail (exit 1) when any tenant burns error budget "
                        "faster than this (default 1.0)")
    p.add_argument("--reconcile", action="store_true",
                   help="check meter per-tenant p99 against the loadgen "
                        "client-side p99 in the same file")
    p.add_argument("--tolerance-ms", type=float, default=25.0,
                   help="absolute reconcile slack (relative slack of 50%% "
                        "applies on top)")


def _load_meter_doc(path: str):
    """A meter snapshot plus (optionally) the loadgen summary it was
    captured with.  Accepts both the raw ``meter`` verb response body
    and the ``loadgen --meter-out`` wrapper."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a JSON object")
    if isinstance(doc.get("meter"), dict):  # loadgen wrapper
        return doc["meter"], doc.get("loadgen") or {}
    if "sessions" in doc and "tenants" in doc:  # raw snapshot
        return doc, {}
    raise ValueError(
        f"{path} is neither a meter snapshot nor a loadgen --meter-out file"
    )


def _slo(args: argparse.Namespace) -> int:
    snap, loadgen = _load_meter_doc(args.file)
    tenants = snap.get("tenants") or {}
    if not tenants:
        raise ValueError("snapshot has no tenant accounts")

    recompute = args.target_ms is not None or args.goal is not None
    if recompute:
        target = args.target_ms if args.target_ms is not None else 250.0
        goal = args.goal if args.goal is not None else 0.99
        objectives = [meter.SLObjective("cli", target, goal)]
    else:
        objectives = [
            meter.SLObjective(o["name"], o["target_ms"], o["goal"])
            for o in snap.get("objectives", [])
        ]

    failures: List[str] = []
    obj_text = ", ".join(
        f"{o.name} ({o.goal * 100:g}% under {o.target_ms:g}ms)"
        for o in objectives
    ) or "(none)"
    print(f"slo report ({snap.get('schema', '?')}) — objectives: {obj_text}")
    client_tenants = loadgen.get("tenants") or {}
    for tenant in sorted(tenants):
        acct = tenants[tenant]
        counters = acct.get("counters", {})
        print(
            f"tenant {tenant}: txns={int(counters.get('txns', 0))} "
            f"p50={acct.get('p50_ms', 0):.2f}ms "
            f"p95={acct.get('p95_ms', 0):.2f}ms "
            f"p99={acct.get('p99_ms', 0):.2f}ms"
        )
        print(
            f"  work: match={counters.get('match_s', 0):.3f}s "
            f"select={counters.get('select_s', 0):.3f}s "
            f"act={counters.get('act_s', 0):.3f}s "
            f"firings={int(counters.get('firings', 0))} "
            f"wm={int(counters.get('wm_changes', 0))} "
            f"queue_wait={counters.get('queue_wait_s', 0):.3f}s "
            f"ipc={int(counters.get('ipc_bytes', 0))}B "
            f"rejected={int(counters.get('rejected_busy', 0))}/"
            f"{int(counters.get('rejected_budget', 0))} "
            f"dropped={int(counters.get('dropped_events', 0))}"
        )
        if recompute:
            # From the snapshot's histogram JSON (per-bucket counts).
            lat = acct.get("latency", {})
            reports = [
                meter.slo_verdict(
                    o, lat.get("count", 0),
                    meter.count_under(lat.get("buckets_ms") or [],
                                      lat.get("counts") or [], o.target_ms),
                )
                for o in objectives
            ]
        else:
            reports = acct.get("slo", [])
        for rep in reports:
            obj = rep["objective"]
            verdict = "OK" if rep["burn_rate"] <= args.max_burn else "BURNING"
            if verdict != "OK":
                failures.append(
                    f"tenant {tenant}: {obj['name']} burn "
                    f"{rep['burn_rate']:.2f}x > {args.max_burn:g}x"
                )
            print(
                f"  {obj['name']}: achieved {rep['achieved'] * 100:.2f}% "
                f"({rep['good']}/{rep['total']} under {obj['target_ms']:g}ms), "
                f"burn {rep['burn_rate']:.2f}x — {verdict}"
            )
        if args.reconcile:
            client = client_tenants.get(tenant)
            if client is None:
                failures.append(
                    f"tenant {tenant}: no client-side latency to reconcile"
                )
                print("  reconcile: no loadgen summary for this tenant — FAIL")
                continue
            meter_p99 = acct.get("p99_ms", 0.0)
            client_p99 = client.get("p99_ms", 0.0)
            delta = abs(meter_p99 - client_p99)
            # Client latency adds wire round-trip + JSON on top of the
            # meter's submit→done; allow the larger of the absolute and
            # relative slack.
            allowed = max(args.tolerance_ms, 0.5 * client_p99)
            ok = delta <= allowed
            if not ok:
                failures.append(
                    f"tenant {tenant}: meter p99 {meter_p99:.2f}ms vs "
                    f"client p99 {client_p99:.2f}ms (Δ{delta:.2f}ms > "
                    f"{allowed:.2f}ms)"
                )
            print(
                f"  reconcile: meter p99 {meter_p99:.2f}ms vs client p99 "
                f"{client_p99:.2f}ms (Δ{delta:.2f}ms <= {allowed:.2f}ms) — "
                f"{'OK' if ok else 'FAIL'}"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


OBS: Registry = {
    "flight": (__name__, "run a program and dump the always-on flight-recorder ring"),
    "stitch": (__name__, "re-stitch a saved fabric capture into a Chrome trace"),
    "slo": (__name__, "render a saved meter snapshot as a per-tenant SLO report"),
}

VERBS = {
    "trace": Verb(
        "trace",
        "Run a program under the repro.obs event bus; write a Chrome-trace JSON "
        "file (load it at https://ui.perfetto.dev) and print the hot-spot "
        "profile.  --engine threaded traces the worker timelines; --engine mp "
        "produces one causally stitched trace across the control process and "
        "every match process (docs/OBSERVABILITY.md).  Exit 1 if the profile's "
        "activation count disagrees with the match stats.",
        _add_trace_arguments, _trace,
    ),
    "top": Verb(
        "top",
        "Run a program under the event bus and print one hot-spot table (--by "
        "production|node|lock|phase), hottest entries first.",
        _add_top_arguments, _top,
    ),
    "obs": OBS,
    "flight": Verb(
        "flight",
        "Run a program (event bus off — the flight recorder is always on) and "
        "dump the ring of recent engine events as a schema-versioned snapshot; "
        "with --engine mp the workers' tails are included.",
        _add_flight_arguments, _flight,
    ),
    "stitch": Verb(
        "stitch",
        "Re-stitch a saved fabric capture (`repro trace --engine mp "
        "--fabric-out`) into a Chrome trace offline.",
        _add_stitch_arguments, _stitch,
    ),
    "slo": Verb(
        "slo",
        "Render a saved meter snapshot (`repro loadgen --meter-out`, or the "
        "server's `meter` response) as a per-tenant latency/burn-rate report; "
        "--reconcile checks the server-side p99 against loadgen's client-"
        "observed p99.  Exit 1 on budget burn beyond --max-burn or a failed "
        "reconcile.",
        _add_slo_arguments, _slo,
    ),
}
