"""The declarative scenario registry driving ``repro bench``.

Each :class:`Scenario` names one workload — a sequential match, a
simulated Multimax sweep, an mp run with the trace fabric on, a service
burst — and declares the name of every value it emits.  Every value is
a deterministic function of the tree: activation, token, steal, spill
and error counts, simulated instruction counts (``*_minstr``),
speed-ups (``*speedup*``, x) and mean spins per acquire (``*_spins_*``).
Nothing here reads a clock; wall time and per-layer seconds are
``bench/``'s job (see docs/PERF.md).

The ``smoke`` suite is sized to finish in a few seconds (small weaver
grid, a 3-session service burst); ``full`` adds the paper-table
workloads at the ``repro.harness`` bench sizes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

#: Suite names scenarios may claim membership of.
SUITES = ("smoke", "full")


@dataclass
class Result:
    """What the one run of a scenario produced."""

    metrics: Dict[str, float]
    #: Compiled network of the run, for node→production attribution in
    #: the captured profile (None when not applicable).
    network: object = None


@dataclass(frozen=True)
class Scenario:
    """One registered workload: measurement callable plus metric names."""

    scenario_id: str
    title: str
    suites: Tuple[str, ...]
    metrics: Tuple[str, ...]
    run: Callable[[], Result] = field(repr=False, default=None)
    #: Run with the obs bus on and store the per-node count profile the
    #: compare gate names movers from.
    profiled: bool = False
    #: Host check run first: returns ``None`` to proceed or a
    #: human-readable reason string, in which case the runner records
    #: ``{"skipped": reason, "metrics": {}}`` instead of measuring.
    #: The compare gate passes a scenario the current host skipped and
    #: prints the reason.
    precondition: Optional[Callable[[], Optional[str]]] = field(
        repr=False, default=None
    )


# ---------------------------------------------------------------------------
# Workload helpers
# ---------------------------------------------------------------------------

#: Smoke-suite weaver sizing: ~20k activations, under a second per run.
_SMOKE_WEAVER = dict(grid=5, n_nets=1)


def _smoke_source() -> str:
    from ..programs import weaver

    return weaver.source(**_SMOKE_WEAVER)


def _match_weaver() -> Result:
    from ..ops5.interpreter import Interpreter

    interp = Interpreter(_smoke_source())
    interp.run(max_cycles=50000)
    return Result(
        metrics={
            "activations": float(interp.stats.node_activations),
            "wm_changes": float(interp.stats.wme_changes),
        },
        network=interp.network,
    )


def _sim_weaver() -> Result:
    from ..ops5.interpreter import Interpreter
    from ..rete.trace import TraceRecorder
    from ..simulator.engine import simulate

    recorder = TraceRecorder()
    interp = Interpreter(_smoke_source(), recorder=recorder)
    interp.run(max_cycles=50000)
    trace = recorder.trace

    def base(scheme: str):
        return simulate(trace, n_match=1, n_queues=1, lock_scheme=scheme,
                        pipelined=False)

    simple_base = base("simple")
    mrsw_base = base("mrsw")
    s_3_1 = simulate(trace, n_match=3, n_queues=1, lock_scheme="simple")
    s_7_8 = simulate(trace, n_match=7, n_queues=8, lock_scheme="simple")
    m_7_8 = simulate(trace, n_match=7, n_queues=8, lock_scheme="mrsw")
    s_7_1 = simulate(trace, n_match=7, n_queues=1, lock_scheme="simple")
    return Result(
        metrics={
            "uniproc_minstr": simple_base.match_instr / 1e6,
            "speedup_1p3_1q": simple_base.match_instr / s_3_1.match_instr,
            "speedup_1p7_8q": simple_base.match_instr / s_7_8.match_instr,
            "speedup_mrsw_1p7_8q": mrsw_base.match_instr / m_7_8.match_instr,
            "queue_spins_1p7_1q": s_7_1.queue_stats.mean_spins,
            "line_spins_1p7_8q": s_7_8.line_left.mean_spins,
        },
    )


def _mp_precondition() -> Optional[str]:
    """The fabric counters need ``fork``, not cores."""
    from ..engines import mp_supported

    if not mp_supported():
        return "mp engine unavailable (no 'fork' start method)"
    return None


def _fabric_mp() -> Result:
    """Trace-fabric health: a 2-worker mp run with the obs bus ON,
    worker spans shipped over the pipes, filed on the control process's
    bus and rendered as one multi-process Chrome trace, an (untrippable)
    stall watchdog riding along.  Ship batches, shipped spans, stitch
    orphans, trace schema problems and watchdog trips are all functions
    of the run, not of the host's core count.  Manages the bus itself,
    so it must not share a bus epoch with the profiler (``profiled``
    stays off).
    """
    from ..obs import events as _events
    from ..obs.export import chrome_trace, validate_chrome_trace
    from ..ops5.interpreter import Interpreter
    from ..ops5.parser import parse_program
    from ..parallel.mp import ProcessMatcher
    from ..rete.network import ReteNetwork

    program = parse_program(_smoke_source())
    network = ReteNetwork.compile(program)
    _events.reset()
    _events.enable()
    try:
        matcher = ProcessMatcher(network, n_workers=2, watchdog_s=600.0)
        interp = Interpreter(program, matcher=matcher, network=network)
        try:
            interp.run(max_cycles=50000)
            snap = _events.snapshot()
            trips = matcher.watchdog.trips if matcher.watchdog else 0
        finally:
            interp.close()
    finally:
        _events.disable()
        _events.reset()
    doc = chrome_trace(snap)
    return Result(
        metrics={
            "ship_batches": float(snap.counters["fabric.ship_batches"]),
            "shipped_spans": float(snap.counters["fabric.ship_spans"]),
            "stitch_orphans": float(doc["otherData"]["stitch_orphans"]),
            "trace_problems": float(len(validate_chrome_trace(doc))),
            "watchdog_trips": float(trips),
        },
    )


def _serve_loadgen() -> Result:
    from ..serve.loadgen import run_loadgen

    report = asyncio.run(
        run_loadgen(scenario="blocks", sessions=3, transactions=6, spawn=True)
    )
    return Result(metrics={"errors": float(report.errors)})


#: Sizing for the corgi-adversarial contrast: large enough that eager
#: Rete pays a visibly super-linear bill (~10^4..10^5 derived tokens),
#: small enough for the smoke budget.
_ADV_CROSS = dict(n_items=110, n_churn=40)
_ADV_DEEP = dict(n_per_level=13, n_churn=6)

_ADV_CROSS_SOURCE = """
(p needle
  (stage ^step cross)
  (item ^id <x>)
  (item ^id { <y> > <x> })
  (probe ^a <x> ^b <y>)
  -->
  (halt))
"""

_ADV_DEEP_SOURCE = (
    "(p chain (c0 ^a 1) (c1 ^a 1) (c2 ^a 1) - (blocker) --> (halt))"
)


def _adv_cross_batches(n_items: int, n_churn: int):
    """Stage + N items against a forever-empty probe slot, then churn:
    delete/re-add one item per round.  Eager Rete rebuilds ~N pair
    tokens per round; an unlinked lazy engine does O(1)."""
    from ..ops5.wme import WMEChange, WorkingMemory

    wm = WorkingMemory()
    batches = [[WMEChange(1, wm.add("stage", {"step": "cross"}))]
               + [WMEChange(1, wm.add("item", {"id": i}))
                  for i in range(n_items)]]
    victim = None
    for round_no in range(n_churn):
        if victim is not None:
            wm.remove(victim)
        old = victim
        victim = wm.add("item", {"id": round_no % n_items})
        batch = [WMEChange(1, victim)]
        if old is not None:
            batch.insert(0, WMEChange(-1, old))
        batches.append(batch)
    return batches


def _adv_deep_batches(n_per_level: int, n_churn: int):
    """A same-value 3-chain behind a constant blocker: Rete derives
    ~N^3 prefixes that the not-node then discards; a gate-hoisting
    engine prunes at depth 0.  Churn re-adds a c0 each round."""
    from ..ops5.wme import WMEChange, WorkingMemory

    wm = WorkingMemory()
    first = [WMEChange(1, wm.add("blocker", {}))]
    for _ in range(n_per_level):
        for level in range(3):
            first.append(WMEChange(1, wm.add(f"c{level}", {"a": 1})))
    batches = [first]
    victim = None
    for _ in range(n_churn):
        batch = []
        if victim is not None:
            wm.remove(victim)
            batch.append(WMEChange(-1, victim))
        victim = wm.add("c0", {"a": 1})
        batch.append(WMEChange(1, victim))
        batches.append(batch)
    return batches


def _serve_meter() -> Result:
    """The service burst with per-session/per-tenant metering on and
    the sessions split across two tenants: every transaction must land
    in a tenant account and the Prometheus exposition must parse
    clean."""
    from ..obs import meter as _meter
    from ..obs.export import validate_prometheus
    from ..serve.loadgen import run_loadgen

    try:
        metered = asyncio.run(run_loadgen(
            scenario="blocks", sessions=3, transactions=6, spawn=True,
            tenants=2, meter=True))
    finally:
        # The spawned server enables the module-global meter; leave the
        # process clean for whatever scenario runs next.
        _meter.disable()
    tenant_accounts = metered.meter.get("tenants", {})
    meter_txns = sum(
        a.get("counters", {}).get("txns", 0) for a in tenant_accounts.values()
    )
    prom_problems = len(validate_prometheus(metered.prometheus))
    return Result(
        metrics={
            "meter_txns": float(meter_txns),
            "meter_errors": float(metered.errors + prom_problems),
        }
    )


def _corgi_adversarial() -> Result:
    """Sequential (eager) Rete vs the corgi lazy engine on adversarial
    cross-product / blocked-chain loads, driven at the matcher layer so
    both engines see identical WMEChange batches; the contrast is the
    derived-token count (CORGI's bound is a counted one)."""
    from ..corgi.engine import CorgiMatcher
    from ..ops5.parser import parse_program
    from ..rete.matcher import SequentialMatcher
    from ..rete.network import ReteNetwork

    cases = (
        ("cross", _ADV_CROSS_SOURCE, _adv_cross_batches(**_ADV_CROSS)),
        ("deep", _ADV_DEEP_SOURCE, _adv_deep_batches(**_ADV_DEEP)),
    )
    metrics: Dict[str, float] = {}
    for name, source, batches in cases:
        program = parse_program(source)
        for eng, factory in (("rete", SequentialMatcher),
                             ("corgi", CorgiMatcher)):
            matcher = factory(ReteNetwork.compile(program))
            for batch in batches:
                matcher.process_changes(batch)
            metrics[f"{name}_{eng}_tokens"] = float(
                matcher.stats.tokens_emitted)
    return Result(metrics=metrics)


# -- full-suite workloads (paper bench sizes; minutes, not seconds) ---------


def _full_sim_sweeps() -> Result:
    """Endpoint speed-ups/spins of Tables 4-5..4-9 at bench sizes."""
    from ..harness.workloads import sim, speedup

    metrics: Dict[str, float] = {}
    for prog in ("weaver", "rubik", "tourney"):
        metrics[f"{prog}_speedup_1p13_1q"] = speedup(
            prog, n_match=13, n_queues=1, lock_scheme="simple")
        metrics[f"{prog}_speedup_1p13_8q"] = speedup(
            prog, n_match=13, n_queues=8, lock_scheme="simple")
        metrics[f"{prog}_speedup_mrsw_1p13_8q"] = speedup(
            prog, n_match=13, n_queues=8, lock_scheme="mrsw")
        metrics[f"{prog}_queue_spins_1p13_1q"] = sim(
            prog, n_match=13, n_queues=1,
            lock_scheme="simple").queue_stats.mean_spins
    return Result(metrics=metrics)


def _policy_metric_key(policy: str) -> str:
    return policy.replace("-", "_")


def _policy_sim_sweep(source: str) -> Result:
    """Simulated Multimax speedups under every dispatch policy.

    One trace, one simulator configuration (7 match procs, 8 queues),
    five dispatch policies — the axis Table 4-6 varies by hand
    (queue count) generalised to the policy registry.  Everything is
    deterministic: instruction counts, steal and rebalance totals."""
    from ..ops5.interpreter import Interpreter
    from ..parallel.policy import POLICY_NAMES
    from ..rete.trace import TraceRecorder
    from ..simulator.engine import simulate

    recorder = TraceRecorder()
    interp = Interpreter(source, recorder=recorder)
    interp.run(max_cycles=50000)
    trace = recorder.trace

    base = simulate(trace, n_match=1, n_queues=1, lock_scheme="simple",
                    pipelined=False)
    metrics: Dict[str, float] = {}
    for policy in POLICY_NAMES:
        run = simulate(trace, n_match=7, n_queues=8, lock_scheme="simple",
                       policy=policy)
        key = _policy_metric_key(policy)
        metrics[f"{key}_speedup_1p7_8q"] = base.match_instr / run.match_instr
        metrics[f"{key}_steals"] = float(run.steals)
        if policy == "rebalance":
            metrics["rebalance_spills"] = float(run.rebalances)
    return Result(metrics=metrics)


def _policy_sweep_weaver() -> Result:
    return _policy_sim_sweep(_smoke_source())


def _policy_sweep_tourney() -> Result:
    from ..programs import tourney

    return _policy_sim_sweep(tourney.source(n_teams=8, n_rounds=12))


def _full_serve_errors() -> Result:
    from ..serve.loadgen import run_loadgen

    metrics: Dict[str, float] = {}
    for scenario, sessions in (("blocks", 4), ("tourney", 12)):
        report = asyncio.run(
            run_loadgen(scenario=scenario, sessions=sessions,
                        transactions=15, spawn=True)
        )
        metrics[f"{scenario}_x{sessions}_errors"] = float(report.errors)
    return Result(metrics=metrics)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.scenario_id in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.scenario_id!r}")
    if len(scenario.metrics) != len(set(scenario.metrics)):
        raise ValueError(f"duplicate metric in {scenario.scenario_id!r}")
    unknown = set(scenario.suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites {unknown} in {scenario.scenario_id!r}")
    SCENARIOS[scenario.scenario_id] = scenario
    return scenario


_register(Scenario(
    scenario_id="match-weaver",
    title="Sequential match, weaver 5x5 grid",
    suites=("smoke", "full"),
    metrics=("activations", "wm_changes"),
    run=_match_weaver,
    profiled=True,
))

_register(Scenario(
    scenario_id="sim-weaver",
    title="Simulated Multimax sweep, weaver 5x5: k procs x queues x locks",
    suites=("smoke", "full"),
    metrics=("uniproc_minstr", "speedup_1p3_1q", "speedup_1p7_8q",
             "speedup_mrsw_1p7_8q", "queue_spins_1p7_1q", "line_spins_1p7_8q"),
    run=_sim_weaver,
))

_register(Scenario(
    scenario_id="fabric-mp",
    title="Trace fabric: 2-worker mp run, bus on, stitched Chrome trace",
    suites=("smoke", "full"),
    metrics=("ship_batches", "shipped_spans", "stitch_orphans",
             "trace_problems", "watchdog_trips"),
    run=_fabric_mp,
    precondition=_mp_precondition,
))

_register(Scenario(
    scenario_id="serve-loadgen",
    title="Service layer: 3 sessions x 6 transactions, blocks scenario",
    suites=("smoke", "full"),
    metrics=("errors",),
    run=_serve_loadgen,
))

_register(Scenario(
    scenario_id="serve-meter",
    title="Metered 2-tenant service burst: accounts and exposition",
    suites=("smoke", "full"),
    metrics=("meter_txns", "meter_errors"),
    run=_serve_meter,
))

_register(Scenario(
    scenario_id="corgi-adversarial",
    title="Lazy corgi vs eager Rete on cross-product / blocked-chain loads",
    suites=("smoke", "full"),
    metrics=tuple(f"{case}_{eng}_tokens"
                  for case in ("cross", "deep")
                  for eng in ("rete", "corgi")),
    run=_corgi_adversarial,
))

_register(Scenario(
    scenario_id="sim-sweeps",
    title="Tables 4-5..4-9 endpoints at harness bench sizes",
    suites=("full",),
    metrics=tuple(
        f"{prog}_{name}"
        for prog in ("weaver", "rubik", "tourney")
        for name in ("speedup_1p13_1q", "speedup_1p13_8q",
                     "speedup_mrsw_1p13_8q", "queue_spins_1p13_1q")
    ),
    run=_full_sim_sweeps,
))


def _policy_sweep_metrics() -> Tuple[str, ...]:
    """Per-policy metric block shared by both policy sweeps."""
    from ..parallel.policy import POLICY_NAMES

    names = []
    for policy in POLICY_NAMES:
        key = _policy_metric_key(policy)
        names += [f"{key}_speedup_1p7_8q", f"{key}_steals"]
    return tuple(names) + ("rebalance_spills",)


_register(Scenario(
    scenario_id="policy-sweep",
    title="Dispatch-policy matrix, simulated Multimax, weaver 5x5, 7p/8q",
    suites=("smoke", "full"),
    metrics=_policy_sweep_metrics(),
    run=_policy_sweep_weaver,
))

_register(Scenario(
    scenario_id="policy-sweep-tourney",
    title="Dispatch-policy matrix, simulated Multimax, tourney 8x12, 7p/8q",
    suites=("full",),
    metrics=_policy_sweep_metrics(),
    run=_policy_sweep_tourney,
))

_register(Scenario(
    scenario_id="serve-throughput",
    title="Service bursts at scale points (blocks x4, tourney x12): errors",
    suites=("full",),
    metrics=("blocks_x4_errors", "tourney_x12_errors"),
    run=_full_serve_errors,
))


def select(suite: Optional[str] = None,
           scenario_ids: Optional[Tuple[str, ...]] = None) -> Dict[str, Scenario]:
    """Scenarios for one suite name (``"all"`` = everything) or an
    explicit id list; raises ``ValueError`` for unknown names."""
    if scenario_ids:
        unknown = [sid for sid in scenario_ids if sid not in SCENARIOS]
        if unknown:
            raise ValueError(
                f"unknown scenarios {unknown}; available: {sorted(SCENARIOS)}"
            )
        return {sid: SCENARIOS[sid] for sid in scenario_ids}
    if suite == "all":
        return dict(SCENARIOS)
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}"
        )
    return {
        sid: sc for sid, sc in SCENARIOS.items() if suite in sc.suites
    }
