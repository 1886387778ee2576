"""Program workloads: one OPS5 program, source text to halt, on one engine.

Set-up is ``parse_program`` → ``ReteNetwork.compile`` → ``CompiledRHS``
table → ``make_matcher``; the run is ``Interpreter.startup()`` followed
by ``Interpreter.step()`` until it returns ``None``, timed per step
from outside.  A traced repetition passes the proxies of
:mod:`spans` in through ``Interpreter(matcher=, rhs_table=)`` and the
``strategy`` / ``conflict_set.apply`` attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.engines import make_matcher
from repro.obs import events as obs_events
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.ops5.rhs import CompiledRHS
from repro.rete.network import ReteNetwork

import spans
from measure import (HostSpeed, Measurement, Repetitions, keep, median,
                     sample_setup, sha256_lines)

#: Fields every engine must reproduce, and the ones only the eager
#: sequential Rete repeats exactly (corgi counts derived combinations,
#: mp sees transient conjugate tokens).
ENGINE_FREE = ("halted", "cycles", "wm_changes", "wm_size", "firing_sha256",
               "output_sha256")
SEQUENTIAL_ONLY = ("activations", "tokens_emitted")


@dataclass(frozen=True)
class Contrast:
    """One extra run of the same input on another configuration, made
    by a traced invocation only and reported as its run time divided by
    the workload's own ``run_s``."""

    metric: str
    engine: str = "sequential"
    opts: Dict[str, object] = field(default_factory=dict)
    bus: bool = False


@dataclass(frozen=True)
class Program:
    """A program workload: input generator, engine, and output checks."""

    source: Callable[[int, bool], str]  # (seed, quick) -> OPS5 text
    engine: str = "sequential"
    opts: Dict[str, object] = field(default_factory=dict)
    #: Program-level check of the output lines; returns a complaint or None.
    invariant: Optional[Callable[[List[str]], Optional[str]]] = None
    contrast: Optional[Contrast] = None

    @property
    def rss_scopes(self) -> Tuple[str, ...]:
        return ("self", "children") if self.engine == "mp" else ("self",)


@dataclass
class Built:
    program: object
    network: ReteNetwork
    rhs: Dict[str, CompiledRHS]
    matcher: object


def build(source: str, engine: str, opts: Dict[str, object], speed: HostSpeed):
    """Source text → ready to run; returns (Built, the four part times)."""
    t0 = perf_counter()
    program = parse_program(source)
    parse_s = perf_counter() - t0
    speed.catch_up(parse_s)
    t0 = perf_counter()
    network = ReteNetwork.compile(program)
    compile_s = perf_counter() - t0
    speed.catch_up(parse_s + compile_s)
    t0 = perf_counter()
    rhs = {p.name: CompiledRHS(p) for p in program.productions}
    t1 = perf_counter()
    matcher = make_matcher(engine, network, **opts)
    t2 = perf_counter()
    return Built(program, network, rhs, matcher), (parse_s, compile_s, t1 - t0, t2 - t1)


def _close(matcher) -> None:
    closer = getattr(matcher, "close", None)
    if closer is not None:
        closer()


@dataclass
class Rep:
    """One run to halt; the seconds are at the reference host's speed."""

    run_s: float
    steps: List[float]
    speed: float
    observed: Dict[str, object]
    output: List[str]
    ipc: Dict[str, int]


def run_once(built: Built, matcher, log: Optional[spans.SpanLog] = None) -> Rep:
    """One run to halt on a fresh ``matcher``; closes it afterwards."""
    rhs = built.rhs
    if log is not None:
        matcher = spans.MatcherProxy(matcher, log)
        rhs = {name: spans.RhsProxy(r, log) for name, r in rhs.items()}
    interp = Interpreter(
        built.program, matcher=matcher, network=built.network, rhs_table=rhs
    )
    if log is not None:
        spans.install(interp, log)
    firings = []
    steps: List[float] = []
    speed = HostSpeed()
    try:
        prev = perf_counter()
        interp.startup()
        now = perf_counter()
        busy = now - prev
        if log is not None:
            log.add_parent(spans.STARTUP, prev, now)
        while True:
            if busy >= speed.due:  # probes run between steps, untimed
                speed.catch_up(busy)
                now = perf_counter()
            if log is not None:
                log.parent += 1
            prev = now
            firing = interp.step()
            now = perf_counter()
            busy += now - prev
            if log is not None:
                log.add_parent(spans.STEP, prev, now)
            if firing is None:
                break
            steps.append(now - prev)
            firings.append(firing)
        factor = speed.factor
        stats = interp.stats
        observed = {
            "halted": interp.halted,
            "cycles": interp.cycle,
            "wm_changes": stats.wme_changes,
            "wm_size": len(interp.wm),
            "firing_sha256": sha256_lines(
                f"{f.cycle} {f.production} {f.timetags}" for f in firings
            ),
            "output_sha256": sha256_lines(interp.output),
            "activations": stats.node_activations,
            "tokens_emitted": stats.tokens_emitted,
            "constant_tests": stats.constant_tests,
            "opp_examined": stats.opp_examined_left + stats.opp_examined_right,
            "same_del_examined": (
                stats.same_del_examined_left + stats.same_del_examined_right
            ),
        }
        ipc = dict(getattr(matcher, "ipc_counters", None) or {})
        return Rep(busy / factor, [s / factor for s in steps], factor,
                   observed, list(interp.output), ipc)
    finally:
        interp.close()


def reference(source: str) -> Dict[str, object]:
    """What the sequential engine makes of ``source`` (untimed)."""
    built, _parts = build(source, "sequential", {}, HostSpeed())
    return run_once(built, built.matcher).observed


def check(spec: Program, engine: str, rep: Rep,
          expected: Dict[str, object]) -> Optional[str]:
    fields = ENGINE_FREE + (SEQUENTIAL_ONLY if engine == "sequential" else ())
    for name in fields:
        if rep.observed[name] != expected[name]:
            return f"{name}: got {rep.observed[name]!r}, expected {expected[name]!r}"
    if not rep.observed["halted"]:
        return "program did not halt"
    if spec.invariant is not None:
        return spec.invariant(rep.output)
    return None


def measure(spec: Program, source: str, expected: Dict[str, object],
            seconds: float, trace: bool) -> Measurement:
    m = Measurement(rss_scopes=spec.rss_scopes)
    m.setup, parts, built = sample_setup(
        lambda speed: build(source, spec.engine, spec.opts, speed),
        lambda b: _close(b.matcher),
        seconds,
    )
    _close(built.matcher)
    built.matcher = None

    def rep(log=None, engine=spec.engine, opts=spec.opts) -> Rep:
        result = run_once(built, make_matcher(engine, built.network, **opts), log)
        cycles = max(1, result.observed["cycles"])
        m.attempted += cycles
        problem = check(spec, engine, result, expected)
        if problem:
            m.fail(cycles, problem)
        return result

    contrast_s = None
    if trace and spec.contrast is not None:
        c = spec.contrast
        if c.bus:
            obs_events.reset()
            obs_events.enable()
        try:
            contrast_s = rep(engine=c.engine, opts=c.opts).run_s
        finally:
            if c.bus:
                obs_events.disable()
                obs_events.reset()

    traced: List[Tuple[Rep, spans.SpanLog]] = []
    traced_clean: List[bool] = []
    reps = Repetitions(seconds)
    while True:
        result, clean = reps.run(rep)
        m.add(result.run_s, result.steps, result.speed, clean)
        if trace:
            log = spans.SpanLog()
            result, clean = reps.run(lambda: rep(log))
            traced.append((result, log))
            traced_clean.append(clean)
        if reps.enough():
            break

    last = result.observed
    m.exact = {name: last[name] for name in ("cycles", "wm_changes")}
    if spec.engine != "mp":
        m.exact.update({name: last[name] for name in SEQUENTIAL_ONLY})
    m.rates = {"wme_changes_per_s": last["wm_changes"] / m.run_s}
    if trace:
        traced = sorted(keep(traced, traced_clean), key=lambda pair: pair[0].run_s)
        chosen, log = traced[(len(traced) - 1) // 2]
        m.spans = log.to_json()
        m.layers = ledger(source, built, parts, chosen, log, m.run_s)
        m.layers["bench.host_speed_x"] = median(m.kept(m.speed))
        if contrast_s is not None:
            m.layers[spec.contrast.metric] = contrast_s / m.run_s
    return m


def setup_layers(source: str, built: Built, parts) -> Dict[str, float]:
    """The set-up layers: medians of the part times ``build`` returned."""
    return {
        "ops5.parser.parse_s": median([p[0] for p in parts]),
        "ops5.parser.productions": len(built.program.productions),
        "ops5.parser.src_kb": len(source.encode("utf-8")) / 1024,
        "rete.network.compile_s": median([p[1] for p in parts]),
        "rete.network.nodes": sum(built.network.node_counts().values()),
        "ops5.rhs.compile_s": median([p[2] for p in parts]),
        "engines.construct_s": median([p[3] for p in parts]),
    }


def ledger(source: str, built: Built, parts, rep: Rep, log: spans.SpanLog,
           untraced_run_s: float) -> Dict[str, float]:
    """The per-layer numbers of one traced repetition."""
    # Spans hold wall-clock stamps; the ledger is in reference seconds.
    busy = {layer: s / rep.speed for layer, s in log.busy().items()}
    calls = log.calls()
    obs = rep.observed
    match_s = busy.get(spans.MATCH, 0.0)
    layers = setup_layers(source, built, parts)
    layers.update({
        "match.process_changes_s": match_s,
        "match.calls": calls.get(spans.MATCH, 0),
        "match.wm_changes": obs["wm_changes"],
        "match.activations": obs["activations"],
        "match.constant_tests": obs["constant_tests"],
        "match.tokens_emitted": obs["tokens_emitted"],
        "match.opp_examined": obs["opp_examined"],
        "match.same_del_examined": obs["same_del_examined"],
        "match.us_per_activation": match_s / max(1, obs["activations"]) * 1e6,
        "ops5.conflict.select_s": busy.get(spans.SELECT, 0.0),
        "ops5.conflict.select_calls": calls.get(spans.SELECT, 0),
        "ops5.conflict.apply_s": busy.get(spans.APPLY, 0.0),
        "ops5.conflict.cs_changes": calls.get(spans.APPLY, 0),
        "ops5.rhs.act_s": busy.get(spans.ACT, 0.0),
        "ops5.rhs.act_calls": calls.get(spans.ACT, 0),
        "ops5.interpreter.cycles": obs["cycles"],
        "ops5.interpreter.unaccounted_s": log.parent_self_time() / rep.speed,
        "bench.traced_run_s": rep.run_s,
        "bench.trace_overhead_x": rep.run_s / untraced_run_s,
    })
    if rep.ipc:
        dispatches = calls.get(spans.MATCH, 0)
        layers.update({
            "parallel.mp.dispatches": dispatches,
            "parallel.mp.forwards": rep.ipc.get("tasks_forwarded", 0),
            "parallel.mp.tasks_local": rep.ipc.get("tasks_local", 0),
            "parallel.mp.ipc_msgs": rep.ipc.get("ipc_msgs", 0),
            "parallel.mp.ms_per_dispatch": match_s / max(1, dispatches) * 1e3,
        })
    return layers
