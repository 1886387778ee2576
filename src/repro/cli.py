"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run FILE``
    Run an OPS5 program file; print its output (``--stats``, ``--trace``
    and ``--strategy`` control detail).

``network FILE``
    Compile a program and dump its Rete network structure.

``simulate FILE``
    Run a program, record its match-task trace, and simulate it on the
    Encore Multimax across a grid of process/queue counts.

``tables [IDS...]``
    Regenerate the paper's tables (all of them by default).

``check BATTERY``
    The differential proof batteries (:mod:`repro.check`): each holds
    one engine to the sequential oracle and prints a byte-stable report
    whose failures carry paste-ready ``replay:`` commands.  ``schedck``
    explores seeded thread schedules of the threaded engine (``--seed
    N`` replays one with its full invariant report, ``--sweep N``
    fuzzes a range across the engine-configuration grid); ``corgick``
    fuzzes the corgi bounded-cost engine over the generator profile
    rotation (``--seed N`` / ``--sweep N``); ``policyck`` runs every
    dispatch/placement policy over the conformance programs on the
    threaded and mp engines (``--policies``, ``--engines``,
    ``--programs`` select a sub-matrix).

``trace FILE|BUILTIN``
    Run a program under the :mod:`repro.obs` event bus; write a
    Chrome-trace JSON file (load it at https://ui.perfetto.dev) and
    print the hot-spot profile.  ``--parallel K`` traces the threaded
    engine's worker timelines; ``--engine mp`` produces one causally
    stitched trace across the control process and every match process
    (see docs/OBSERVABILITY.md).

``top FILE|BUILTIN``
    Run a program and print one hot-spot table — ``--by
    production|node|lock|phase`` — hottest entries first.

``obs flight|stitch|slo``
    Flight-recorder and trace-fabric tools: ``flight`` runs a program
    and dumps the always-on ring of recent engine events as a
    schema-versioned snapshot; ``stitch`` re-stitches a saved fabric
    capture (``trace --engine mp --fabric-out``) into a Chrome trace
    offline; ``slo`` renders a saved meter snapshot (``loadgen
    --meter-out`` or the server's ``meter`` verb) as a per-tenant
    latency/burn-rate report, optionally reconciling the server-side
    percentiles against loadgen's client-observed latency summary.

``serve``
    Host OPS5 sessions over a line-delimited JSON protocol: many
    concurrent working memories over shared compiled Rete networks,
    with batched WM transactions, backpressure, and cycle budgets
    (see docs/SERVICE.md).

``loadgen``
    Drive a server (``--connect HOST:PORT`` or in-process via
    ``--spawn``) with N concurrent sessions replaying deterministic
    scenario traffic; print a throughput/latency report and, with
    ``--verify``, byte-compare each session's firings against a
    sequential replay.

``bench run|compare|report``
    The performance observatory (see docs/PERF.md): ``run`` executes a
    scenario suite with warm-up and repetitions, writes a
    schema-versioned ``BENCH_<runid>.json`` artifact, and appends to
    the ``trajectory.jsonl`` history; ``compare`` classifies every
    metric against a baseline run with MAD-based noise thresholds and
    attributes regressions to hot-spot movers; ``report`` renders the
    trajectory as markdown.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from typing import List, Optional

from .engines import ENGINE_NAMES, check_engine_opts, make_matcher
from .ops5.interpreter import Interpreter
from .ops5.parser import parse_program
from .rete.network import ReteNetwork
from .rete.trace import TraceRecorder


def _read_program(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise SystemExit(f"repro: cannot read {path}: {exc.strerror}")
    return parse_program(source)


def _read_source(path: str, verb: str) -> str:
    """Raw program text for the service verbs (they parse server-side)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(f"repro {verb}: cannot read {path}: {exc.strerror}")


def cmd_run(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    try:
        check_engine_opts(
            args.engine, policy=args.policy, watchdog_s=args.watchdog
        )
    except ValueError as exc:
        raise SystemExit(f"repro run: {exc}")
    engine_opts: dict = {
        "n_workers": args.workers,
        "n_queues": args.queues,
        "lock_scheme": args.locks,
        "policy": args.policy,
    }
    if args.watchdog:
        engine_opts["watchdog_s"] = args.watchdog
        engine_opts["watchdog_dump"] = args.watchdog_dump
    if args.flight_dump:
        from .obs import flight as obs_flight

        obs_flight.set_dump_path(args.flight_dump)
    interp = Interpreter(
        program,
        strategy=args.strategy,
        memory=args.memory,
        mode=args.mode,
        engine=args.engine,
        engine_opts=engine_opts,
    )
    with closing(interp):
        result = interp.run(max_cycles=args.max_cycles)
        watchdog = getattr(interp.matcher, "watchdog", None)
    if watchdog is not None and watchdog.tripped:
        print(
            f"repro run: watchdog tripped {watchdog.trips}x "
            f"(stuck queue: {watchdog.bundles[-1].get('stuck_queue')})",
            file=sys.stderr,
        )
    for line in result.output:
        print(line)
    if args.trace:
        print("\nfirings:", file=sys.stderr)
        for firing in result.firings:
            print(
                f"  {firing.cycle:5d}  {firing.production}  {firing.timetags}",
                file=sys.stderr,
            )
    if args.stats:
        stats = interp.stats
        print(
            f"\ncycles={result.cycles} halted={result.halted} "
            f"wm_changes={stats.wme_changes} "
            f"activations={stats.node_activations} "
            f"match_seconds={interp.matcher.match_seconds:.3f}",
            file=sys.stderr,
        )
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    network = ReteNetwork.compile(_read_program(args.file), mode=args.mode)
    counts = network.node_counts()
    print(f"productions:        {len(network.productions)}")
    for kind, n in counts.items():
        print(f"{kind + ':':<19} {n}")
    if args.verbose:
        print("\nconstant-test nodes:")
        for node in network.constant_nodes:
            print(f"  #{node.node_id}: {node.desc}")
        print("\ntwo-input nodes:")
        for node in network.two_input_nodes():
            print(f"  {node.kind} #{node.node_id}: tests={list(node.tests)}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator.engine import simulate, uniprocessor_baseline

    program = _read_program(args.file)
    recorder = TraceRecorder()
    interp = Interpreter(program, recorder=recorder)
    result = interp.run(max_cycles=args.max_cycles)
    print(f"run: {result.cycles} cycles, {recorder.trace.n_tasks} match tasks")
    base = uniprocessor_baseline(recorder.trace)
    print(f"uniprocessor match (simulated Encore Multimax): {base.match_seconds:.3f}s")
    print(f"{'config':>12} {'speed-up':>9} {'queue spins':>12}")
    for k in args.processes:
        for q in args.queues:
            run = simulate(recorder.trace, n_match=k, n_queues=q, lock_scheme=args.locks)
            print(
                f"{f'1+{k}/{q}q':>12} "
                f"{base.match_instr / run.match_instr:>9.2f} "
                f"{run.queue_stats.mean_spins:>12.2f}"
            )
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from .harness.experiments import ALL_TABLES

    selected = args.ids or list(ALL_TABLES)
    unknown = [t for t in selected if t not in ALL_TABLES]
    if unknown:
        print(f"unknown tables: {unknown}; available: {sorted(ALL_TABLES)}", file=sys.stderr)
        return 2
    for table_id in selected:
        print(ALL_TABLES[table_id]().report)
        print()
    return 0


class _BatteryNames:
    """``choices`` for ``repro check``, read from the registry only when
    the verb (or its help) is used — the other verbs, ``serve`` start-up
    above all, never import the proof harness."""

    def __iter__(self):
        from .check import BATTERIES

        return iter(BATTERIES)

    def __contains__(self, name) -> bool:
        return name in tuple(self)


def cmd_check(args: argparse.Namespace) -> int:
    from . import check

    return check.main(args)


#: Program names ``trace``/``top`` resolve when the argument is not a file.
_BUILTIN_PROGRAMS = (
    "blocks", "monkey", "tourney", "rubik", "weaver", "crossfire", "negchain"
)


def _resolve_program_source(name_or_path: str, verb: str) -> str:
    """Program text from a file path or a builtin benchmark name."""
    import os

    if os.path.exists(name_or_path):
        return _read_source(name_or_path, verb)
    if name_or_path in _BUILTIN_PROGRAMS:
        from . import programs

        return getattr(programs, name_or_path).source()
    raise SystemExit(
        f"repro {verb}: {name_or_path!r} is neither a file nor a builtin "
        f"program ({', '.join(_BUILTIN_PROGRAMS)})"
    )


def _build_traced_matcher(args: argparse.Namespace, verb: str, network):
    """The matcher for a traced run: ``--engine`` picks any backend,
    the older ``--parallel K`` spelling still means threaded."""
    engine = getattr(args, "engine", "sequential")
    if args.parallel:
        engine = "threaded"
    if engine == "sequential":
        return None, engine
    try:
        matcher = make_matcher(
            engine,
            network,
            n_workers=args.parallel or args.workers,
            n_queues=args.queues,
            lock_scheme=args.locks,
        )
    except ValueError as exc:
        raise SystemExit(f"repro {verb}: {exc}")
    return matcher, engine


def _traced_run(args: argparse.Namespace, verb: str):
    """Run one program with the event bus on; returns
    ``(run result, match stats, network, snapshot, matcher)``.

    The snapshot is the *control-process* capture; an mp matcher
    additionally carries worker-shipped telemetry on ``matcher.fabric``
    (merge with :func:`_profile_snapshot` before building profiles).
    """
    from .obs import events as obs_events

    program = parse_program(_resolve_program_source(args.file, verb))
    network = ReteNetwork.compile(program)
    matcher, _engine = _build_traced_matcher(args, verb, network)
    if matcher is not None:
        interp = Interpreter(program, matcher=matcher, network=network)
    else:
        interp = Interpreter(program, network=network)
    obs_events.reset()
    obs_events.enable(max_events_per_worker=args.max_events)
    try:
        result = interp.run(max_cycles=args.max_cycles)
        stats = interp.stats
    finally:
        interp.close()
        snap = obs_events.snapshot()
        obs_events.disable()
    return result, stats, network, snap, interp.matcher


def _profile_snapshot(snap, matcher):
    """Fold mp worker lanes into the snapshot, when there are any."""
    fabric_collector = getattr(matcher, "fabric", None)
    if fabric_collector is None:
        return snap
    from .obs import fabric as obs_fabric

    return obs_fabric.merged_snapshot(snap, fabric_collector)


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import profile as obs_profile
    from .obs.export import write_chrome_trace

    result, stats, network, snap, matcher = _traced_run(args, "trace")
    fabric_collector = getattr(matcher, "fabric", None)
    if fabric_collector is not None:
        # mp: one stitched trace — control pid plus one pid lane per
        # worker, with dispatch→batch flow arrows.
        from .obs import fabric as obs_fabric

        doc, orphans = obs_fabric.stitch_trace(snap, fabric_collector)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        n_events = len(doc["traceEvents"])
        if args.fabric_out:
            obs_fabric.write_capture(args.fabric_out, snap, fabric_collector)
            print(f"fabric capture -> {args.fabric_out}")
        if orphans:
            print(f"warning: {orphans} stitch orphans", file=sys.stderr)
    else:
        n_events = write_chrome_trace(args.out, snap)
    profile = obs_profile.build(_profile_snapshot(snap, matcher), network=network)
    print(obs_profile.render_text(profile, limit=args.limit))
    agreement = (
        "equal"
        if profile.total_activations == stats.node_activations
        else "MISMATCH"
    )
    print()
    print(f"run: cycles={result.cycles} halted={result.halted}")
    print(
        f"profile activations={profile.total_activations} "
        f"match node_activations={stats.node_activations} ({agreement})"
    )
    print(f"trace: {n_events} events -> {args.out}")
    return 0 if agreement == "equal" else 1


def cmd_top(args: argparse.Namespace) -> int:
    from .obs import profile as obs_profile

    _result, _stats, network, snap, matcher = _traced_run(args, "top")
    profile = obs_profile.build(_profile_snapshot(snap, matcher), network=network)
    pruned = obs_profile.Profile(
        nodes=profile.nodes if args.by == "node" else [],
        productions=profile.productions if args.by == "production" else [],
        locks=profile.locks if args.by == "lock" else [],
        phases=profile.phases if args.by == "phase" else [],
        dropped=profile.dropped,
    )
    print(obs_profile.render_text(pruned, limit=args.limit))
    return 0


def cmd_obs_flight(args: argparse.Namespace) -> int:
    """Run a program (event bus *off* — the flight recorder is always
    on) and dump the flight-recorder snapshot."""
    from .obs import flight as obs_flight

    if args.ring:
        obs_flight.configure(args.ring)
    else:
        obs_flight.reset()
    program = parse_program(_resolve_program_source(args.file, "obs flight"))
    network = ReteNetwork.compile(program)
    matcher, engine = _build_traced_matcher(args, "obs flight", network)
    if matcher is not None:
        interp = Interpreter(program, matcher=matcher, network=network)
    else:
        interp = Interpreter(program, network=network)
    with closing(interp):
        result = interp.run(max_cycles=args.max_cycles)
        # mp workers' tails arrive piggybacked on flush replies even
        # with the bus off.
        fabric_collector = getattr(interp.matcher, "fabric", None)
        workers = (
            fabric_collector.flight_tails() if fabric_collector is not None else None
        )
    doc = obs_flight.write_snapshot(args.out, "cli", workers=workers)
    problems = obs_flight.validate_flight(doc)
    print(
        f"run: engine={engine} cycles={result.cycles} halted={result.halted}"
    )
    print(
        f"flight: {len(doc['events'])} events "
        f"(ring {doc['ring_capacity']}, {doc['recorded_total']} recorded, "
        f"{len(doc.get('workers') or {})} worker tails) -> {args.out}"
    )
    for problem in problems:
        print(f"invalid snapshot: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_obs_stitch(args: argparse.Namespace) -> int:
    """Re-stitch a saved fabric capture into a Chrome trace offline."""
    import json

    from .obs import fabric as obs_fabric
    from .obs.export import validate_chrome_trace

    try:
        with open(args.capture, "r", encoding="utf-8") as fh:
            capture = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro obs stitch: cannot read {args.capture}: {exc}")
    try:
        snap, collector = obs_fabric.load_capture(capture)
    except ValueError as exc:
        raise SystemExit(f"repro obs stitch: {exc}")
    doc, orphans = obs_fabric.stitch_trace(snap, collector)
    problems = validate_chrome_trace(doc)
    for problem in problems:
        print(f"invalid trace: {problem}", file=sys.stderr)
    if problems:
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    pids = sorted({e["pid"] for e in doc["traceEvents"]})
    print(
        f"stitched: {len(doc['traceEvents'])} events across "
        f"{len(pids)} pids ({len(collector.lanes)} worker lanes, "
        f"{orphans} orphans) -> {args.out}"
    )
    return 0


def _load_meter_doc(path: str):
    """A meter snapshot plus (optionally) the loadgen summary it was
    captured with.  Accepts both the raw ``meter`` verb response body
    and the ``loadgen --meter-out`` wrapper."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro obs slo: cannot read {path}: {exc}")
    if not isinstance(doc, dict):
        raise SystemExit(f"repro obs slo: {path} is not a JSON object")
    if isinstance(doc.get("meter"), dict):  # loadgen wrapper
        return doc["meter"], doc.get("loadgen") or {}
    if "sessions" in doc and "tenants" in doc:  # raw snapshot
        return doc, {}
    raise SystemExit(
        f"repro obs slo: {path} is neither a meter snapshot nor a "
        "loadgen --meter-out file"
    )


def _slo_from_latency(lat: dict, objective) -> dict:
    """Recompute one objective's report from a snapshot's histogram
    JSON (counts are per-bucket, +Inf last)."""
    buckets = lat.get("buckets_ms") or []
    counts = lat.get("counts") or []
    total = lat.get("count", 0)
    good = sum(
        c for le, c in zip(buckets, counts) if le <= objective.target_ms
    )
    achieved = (good / total) if total else 1.0
    violation = 1.0 - achieved
    budget = 1.0 - objective.goal
    burn = (violation / budget) if budget > 0 else (
        0.0 if violation == 0 else float("inf"))
    return {
        "objective": objective.to_json(),
        "total": total,
        "good": good,
        "achieved": achieved,
        "burn_rate": burn,
        "met": achieved >= objective.goal,
    }


def cmd_obs_slo(args: argparse.Namespace) -> int:
    """Render a saved meter snapshot as an SLO report."""
    from .obs import meter as obs_meter

    snap, loadgen = _load_meter_doc(args.file)
    tenants = snap.get("tenants") or {}
    if not tenants:
        print("repro obs slo: snapshot has no tenant accounts", file=sys.stderr)
        return 1

    if args.target_ms is not None or args.goal is not None:
        target = args.target_ms if args.target_ms is not None else 250.0
        goal = args.goal if args.goal is not None else 0.99
        objectives = [obs_meter.SLObjective("cli", target, goal)]
        recompute = True
    else:
        objectives = [
            obs_meter.SLObjective(o["name"], o["target_ms"], o["goal"])
            for o in snap.get("objectives", [])
        ]
        recompute = False

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
            reports = [
                _slo_from_latency(acct.get("latency", {}), o)
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
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .ops5.errors import Ops5Error
    from .serve.limits import ServiceLimits
    from .serve.server import ReproServer

    if not 0 <= args.port <= 65535:
        raise SystemExit(
            f"repro serve: invalid port {args.port}; expected 0-65535"
        )
    preload_sources = [_read_source(p, "serve") for p in args.preload]
    limits = ServiceLimits(
        max_sessions=args.max_sessions, inbox_depth=args.inbox_depth
    )
    try:
        limits.validate()
    except ValueError as exc:
        raise SystemExit(f"repro serve: {exc}")
    slo_objectives = None
    if args.slo:
        from .obs.meter import parse_objective

        try:
            slo_objectives = [parse_objective(spec) for spec in args.slo]
        except ValueError as exc:
            raise SystemExit(f"repro serve: {exc}")

    async def _serve() -> None:
        server = ReproServer(
            host=args.host, port=args.port, limits=limits, mode=args.mode,
            meter=args.meter or bool(slo_objectives), slo=slo_objectives,
        )
        host, port = await server.start()
        try:
            for source in preload_sources:
                server.preload(source)
        except Ops5Error as exc:
            await server.shutdown()
            raise SystemExit(f"repro serve: preload failed: {exc}")
        print(f"repro serve: listening on {host}:{port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.loadgen import run_loadgen
    from .serve.traffic import SCENARIOS

    if args.scenario not in SCENARIOS:
        raise SystemExit(
            f"repro loadgen: unknown scenario {args.scenario!r}; "
            f"expected one of {', '.join(SCENARIOS)}"
        )
    if args.sessions < 1 or args.transactions < 1:
        raise SystemExit(
            "repro loadgen: --sessions and --transactions must be positive"
        )
    host = port = None
    if args.connect and args.spawn:
        raise SystemExit("repro loadgen: --connect and --spawn are exclusive")
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
        if not host or not 0 < port <= 65535:
            raise SystemExit(
                f"repro loadgen: bad --connect {args.connect!r}; "
                "expected HOST:PORT"
            )
    elif not args.spawn:
        raise SystemExit("repro loadgen: need --connect HOST:PORT or --spawn")
    program_source = (
        _read_source(args.program, "loadgen") if args.program else None
    )
    if args.tenants < 1:
        raise SystemExit("repro loadgen: --tenants must be positive")
    report = asyncio.run(
        run_loadgen(
            scenario=args.scenario,
            sessions=args.sessions,
            transactions=args.transactions,
            host=host,
            port=port,
            spawn=args.spawn,
            verify=args.verify,
            seed=args.seed,
            program_source=program_source,
            shutdown_after=args.shutdown_after,
            trace_path=args.trace_out,
            tenants=args.tenants,
            engine=args.engine,
            workers=args.workers,
            meter=args.meter,
            meter_out=args.meter_out,
            prom_out=args.prom_out,
        )
    )
    print(report.format())
    return 0 if report.ok else 1


def cmd_bench_run(args: argparse.Namespace) -> int:
    from .perf.report import render_run_text
    from .perf.runner import run_suite

    try:
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
    except ValueError as exc:
        raise SystemExit(f"repro bench run: {exc}")
    print(render_run_text(doc, path))
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from .perf.compare import compare_docs, resolve_doc

    try:
        baseline = resolve_doc(args.out_dir, args.baseline)
        current = resolve_doc(args.out_dir, args.current)
        result = compare_docs(
            baseline,
            current,
            stable_only=args.stable_only,
            movers_limit=args.movers,
        )
    except ValueError as exc:
        raise SystemExit(f"repro bench compare: {exc}")
    print(result.format())
    return 0 if result.ok else 1


def cmd_bench_report(args: argparse.Namespace) -> int:
    import os

    from .perf.report import load_trajectory, render_markdown

    try:
        entries = load_trajectory(
            os.path.join(args.out_dir, "trajectory.jsonl")
        )
    except ValueError as exc:
        raise SystemExit(f"repro bench report: {exc}")
    text = render_markdown(entries, limit=args.limit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(entries)} runs)")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an OPS5 program")
    p_run.add_argument("file")
    p_run.add_argument("--strategy", choices=["lex", "mea"], default="lex")
    p_run.add_argument("--memory", choices=["hash", "linear"], default="hash")
    p_run.add_argument("--mode", choices=["compiled", "interpreted"], default="compiled")
    p_run.add_argument("--engine", choices=list(ENGINE_NAMES), default="sequential",
                       help="match backend: sequential, threaded (GIL-bound), "
                            "or mp (one process per worker, real speedup)")
    p_run.add_argument("--workers", type=int, default=2,
                       help="match workers for --engine threaded/mp")
    p_run.add_argument("--run-queues", type=int, default=1, dest="queues",
                       help="task queues for --engine threaded")
    p_run.add_argument("--run-locks", choices=["simple", "mrsw"], default="simple",
                       dest="locks", help="line-lock scheme for --engine threaded")
    p_run.add_argument("--policy", default=None,
                       help="dispatch/placement policy for --engine "
                            "threaded/mp (round-robin, affinity, "
                            "least-loaded, work-stealing, rebalance)")
    p_run.add_argument("--max-cycles", type=int, default=100000)
    p_run.add_argument("--stats", action="store_true")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--watchdog", type=float, default=0.0, metavar="S",
                       help="stall watchdog for threaded/mp: trip after S "
                            "seconds of pending work with no progress")
    p_run.add_argument("--watchdog-dump", metavar="FILE",
                       help="write the watchdog diagnostic bundle here on trip")
    p_run.add_argument("--flight-dump", metavar="FILE",
                       help="write a flight-recorder snapshot here on "
                            "unhandled engine error")
    p_run.set_defaults(func=cmd_run)

    p_net = sub.add_parser("network", help="dump the compiled Rete network")
    p_net.add_argument("file")
    p_net.add_argument("--mode", choices=["compiled", "interpreted"], default="compiled")
    p_net.add_argument("-v", "--verbose", action="store_true")
    p_net.set_defaults(func=cmd_network)

    p_sim = sub.add_parser("simulate", help="simulate a program on the Encore Multimax")
    p_sim.add_argument("file")
    p_sim.add_argument("--processes", type=int, nargs="+", default=[1, 3, 7, 13])
    p_sim.add_argument("--queues", type=int, nargs="+", default=[1, 8])
    p_sim.add_argument("--locks", choices=["simple", "mrsw"], default="simple")
    p_sim.add_argument("--max-cycles", type=int, default=100000)
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser("tables", help="regenerate the paper's tables")
    p_tab.add_argument("ids", nargs="*")
    p_tab.set_defaults(func=cmd_tables)

    p_chk = sub.add_parser(
        "check", help="differential proof batteries vs the sequential oracle"
    )
    p_chk.add_argument("battery", metavar="BATTERY",
                       choices=_BatteryNames(), help="one of: %(choices)s")
    p_chk.add_argument("argv", nargs=argparse.REMAINDER, metavar="...",
                       help="battery flags (see `repro check BATTERY --help`)")
    p_chk.set_defaults(func=cmd_check)

    def _engine_flags(p: argparse.ArgumentParser, obs_flags: bool = True) -> None:
        p.add_argument("--engine", choices=list(ENGINE_NAMES),
                       default="sequential",
                       help="match backend (mp produces a stitched "
                            "multi-process trace)")
        p.add_argument("--workers", type=int, default=2,
                       help="match workers for --engine threaded/mp")
        p.add_argument("--parallel", type=int, default=0, metavar="K",
                       help="shorthand for --engine threaded --workers K")
        p.add_argument("--queues", type=int, default=1)
        p.add_argument("--locks", choices=["simple", "mrsw"], default="simple")
        p.add_argument("--max-cycles", type=int, default=100000)
        if obs_flags:
            p.add_argument("--max-events", type=int, default=200_000,
                           help="per-worker span buffer cap")
            p.add_argument("--limit", type=int, default=15,
                           help="rows per hot-spot table")

    p_trc = sub.add_parser(
        "trace",
        help="run a program under the obs event bus; export a Chrome trace",
    )
    p_trc.add_argument("file",
                       help="program file, or builtin: "
                            "blocks | monkey | tourney | rubik | weaver | "
                            "crossfire | negchain")
    p_trc.add_argument("--out", default="trace.json",
                       help="Chrome-trace JSON output path (Perfetto-loadable)")
    p_trc.add_argument("--fabric-out", metavar="FILE",
                       help="with --engine mp: also write the raw fabric "
                            "capture (re-stitch with `repro obs stitch`)")
    _engine_flags(p_trc)
    p_trc.set_defaults(func=cmd_trace)

    p_top = sub.add_parser(
        "top", help="run a program and print one hot-spot table"
    )
    p_top.add_argument("file",
                       help="program file, or builtin: "
                            "blocks | monkey | tourney | rubik | weaver | "
                            "crossfire | negchain")
    p_top.add_argument("--by", choices=["production", "node", "lock", "phase"],
                       default="production")
    _engine_flags(p_top)
    p_top.set_defaults(func=cmd_top)

    p_obs = sub.add_parser(
        "obs", help="flight recorder and trace-fabric tools"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    o_flight = obs_sub.add_parser(
        "flight",
        help="run a program and dump the always-on flight-recorder ring",
    )
    o_flight.add_argument("file",
                          help="program file, or builtin: "
                               "blocks | monkey | tourney | rubik | weaver | "
                               "crossfire | negchain")
    o_flight.add_argument("--out", default="flight.json",
                          help="flight snapshot output path")
    o_flight.add_argument("--ring", type=int, default=0, metavar="N",
                          help="resize the flight ring to N events first")
    _engine_flags(o_flight, obs_flags=False)
    o_flight.set_defaults(func=cmd_obs_flight)

    o_stitch = obs_sub.add_parser(
        "stitch",
        help="re-stitch a saved fabric capture into a Chrome trace",
    )
    o_stitch.add_argument("capture",
                          help="fabric capture file "
                               "(`repro trace --engine mp --fabric-out`)")
    o_stitch.add_argument("--out", default="stitched.json",
                          help="Chrome-trace JSON output path")
    o_stitch.set_defaults(func=cmd_obs_stitch)

    o_slo = obs_sub.add_parser(
        "slo",
        help="render a saved meter snapshot as a per-tenant SLO report",
    )
    o_slo.add_argument("file",
                       help="meter JSON: `loadgen --meter-out` file or a "
                            "saved `meter` verb response body")
    o_slo.add_argument("--target-ms", type=float, default=None,
                       help="recompute against this latency target "
                            "instead of the snapshot's objectives")
    o_slo.add_argument("--goal", type=float, default=None,
                       help="good fraction for --target-ms "
                            "(default 0.99)")
    o_slo.add_argument("--max-burn", type=float, default=1.0,
                       help="fail (exit 1) when any tenant burns error "
                            "budget faster than this (default 1.0)")
    o_slo.add_argument("--reconcile", action="store_true",
                       help="check meter per-tenant p99 against the "
                            "loadgen client-side p99 in the same file")
    o_slo.add_argument("--tolerance-ms", type=float, default=25.0,
                       help="absolute reconcile slack (relative slack "
                            "of 50%% applies on top)")
    o_slo.set_defaults(func=cmd_obs_slo)

    p_srv = sub.add_parser(
        "serve", help="host OPS5 sessions over a line-JSON protocol"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral)")
    p_srv.add_argument("--mode", choices=["compiled", "interpreted"],
                       default="compiled")
    p_srv.add_argument("--preload", action="append", default=[],
                       metavar="FILE",
                       help="warm the network cache with a program file "
                            "(repeatable)")
    p_srv.add_argument("--max-sessions", type=int, default=256)
    p_srv.add_argument("--inbox-depth", type=int, default=16)
    p_srv.add_argument("--meter", action="store_true",
                       help="enable per-session/per-tenant resource "
                            "metering (the `meter` verb)")
    p_srv.add_argument("--slo", action="append", default=[],
                       metavar="NAME:TARGET_MS:GOAL",
                       help="SLO objective, e.g. txn_p99:250:0.99 "
                            "(repeatable; implies --meter)")
    p_srv.set_defaults(func=cmd_serve)

    p_lg = sub.add_parser(
        "loadgen", help="drive a server with concurrent session traffic"
    )
    p_lg.add_argument("--scenario", default="mix",
                      help="blocks | monkey | tourney | mix")
    p_lg.add_argument("--sessions", type=int, default=20)
    p_lg.add_argument("--transactions", type=int, default=50,
                      help="transactions per session")
    p_lg.add_argument("--connect", metavar="HOST:PORT",
                      help="drive a running server")
    p_lg.add_argument("--spawn", action="store_true",
                      help="host an in-process server on an ephemeral port")
    p_lg.add_argument("--program", metavar="FILE",
                      help="replay budgeted runs of this program file "
                           "instead of a scenario")
    p_lg.add_argument("--verify", action="store_true",
                      help="byte-compare firings with a sequential replay")
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--shutdown-after", action="store_true",
                      help="send a shutdown request when the run is done")
    p_lg.add_argument("--trace-out", metavar="FILE",
                      help="enable the obs event bus for the run and write "
                           "a Chrome-trace JSON file (stitched across "
                           "processes when sessions use --engine mp)")
    p_lg.add_argument("--tenants", type=int, default=1,
                      help="partition sessions round-robin into N tenant "
                           "labels t0..tN-1 (default 1 = all 'default')")
    p_lg.add_argument("--engine", choices=list(ENGINE_NAMES),
                      default="sequential",
                      help="match backend each session opens with")
    p_lg.add_argument("--workers", type=int, default=2,
                      help="match workers for --engine threaded/mp")
    p_lg.add_argument("--meter", action="store_true",
                      help="enable metering on the spawned server and "
                           "scrape the snapshot into the report")
    p_lg.add_argument("--meter-out", metavar="FILE",
                      help="write the meter snapshot + client latency "
                           "summary as JSON (feed to `repro obs slo`)")
    p_lg.add_argument("--prom-out", metavar="FILE",
                      help="write the server's Prometheus exposition here")
    p_lg.set_defaults(func=cmd_loadgen)

    p_bench = sub.add_parser(
        "bench", help="performance observatory (see docs/PERF.md)"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    b_run = bench_sub.add_parser(
        "run", help="run a scenario suite; write a BENCH_<runid>.json"
    )
    b_run.add_argument("--suite", default="smoke",
                       help="smoke | full | all (default smoke)")
    b_run.add_argument("--scenario", action="append", default=[],
                       metavar="ID",
                       help="run this scenario instead of a suite "
                            "(repeatable)")
    b_run.add_argument("--repeat", type=int, default=5,
                       help="timed repetitions per scenario "
                            "(deterministic scenarios always run once)")
    b_run.add_argument("--warmup", type=int, default=1,
                       help="discarded warm-up repetitions")
    b_run.add_argument("--out-dir", default="benchmarks",
                       help="artifact + trajectory directory")
    b_run.add_argument("--runid", help="override the generated run id")
    b_run.add_argument("--note", default="",
                       help="free-form note stored in the artifact")
    b_run.add_argument("--no-trajectory", action="store_true",
                       help="write the artifact only; skip the "
                            "trajectory append")
    b_run.set_defaults(func=cmd_bench_run)

    b_cmp = bench_sub.add_parser(
        "compare", help="classify metric movement vs a baseline run"
    )
    b_cmp.add_argument("--out-dir", default="benchmarks")
    b_cmp.add_argument("--baseline", default="prev",
                       help="runid, artifact path, 'latest', or 'prev' "
                            "(default: prev)")
    b_cmp.add_argument("--current", default="latest",
                       help="runid, artifact path, 'latest', or 'prev' "
                            "(default: latest)")
    b_cmp.add_argument("--stable-only", action="store_true",
                       help="compare deterministic metrics only "
                            "(cross-machine safe)")
    b_cmp.add_argument("--movers", type=int, default=5,
                       help="hot-spot movers listed per regressed scenario")
    b_cmp.set_defaults(func=cmd_bench_compare)

    b_rep = bench_sub.add_parser(
        "report", help="render the trajectory as markdown"
    )
    b_rep.add_argument("--out-dir", default="benchmarks")
    b_rep.add_argument("--limit", type=int, default=20,
                       help="most recent runs shown")
    b_rep.add_argument("--out", metavar="FILE",
                       help="write the markdown here instead of stdout")
    b_rep.set_defaults(func=cmd_bench_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
