"""The simulator workload: record a match trace, replay it on the Multimax model.

This is the host-time cost of the path that regenerates the paper's
Tables 4-5 to 4-9: one sequential run under a ``TraceRecorder``, then
``simulate`` at five machine configurations.  The simulated results
are exact, so they are the output check.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

from repro.engines import make_matcher
from repro.ops5.interpreter import Interpreter
from repro.rete.trace import TraceRecorder
from repro.simulator.engine import simulate

import program
from measure import HostSpeed, Measurement, Repetitions, median, sample_setup

#: (match processes, task queues, lock scheme, pipelined); the first is
#: the paper's uniprocessor baseline the speed-ups are taken against.
CONFIGS: Tuple[Tuple[int, int, str, bool], ...] = (
    (1, 1, "simple", False),
    (3, 1, "simple", True),
    (7, 8, "simple", True),
    (13, 8, "simple", True),
    (13, 8, "mrsw", True),
)


def run_once(built: program.Built):
    """Record + sweep; returns (step seconds, speed factor, simulated results)."""
    recorder = TraceRecorder()
    matcher = make_matcher("sequential", built.network, recorder=recorder)
    interp = Interpreter(
        built.program, matcher=matcher, network=built.network,
        rhs_table=built.rhs, recorder=recorder,
    )
    speed = HostSpeed()
    speed.catch_up(0.0)
    t0 = perf_counter()
    interp.run()
    steps = [perf_counter() - t0]
    speed.catch_up(sum(steps))
    trace = recorder.trace
    match_instr: List[float] = []
    for n_match, n_queues, locks, pipelined in CONFIGS:
        t0 = perf_counter()
        result = simulate(trace, n_match, n_queues, lock_scheme=locks,
                          pipelined=pipelined)
        steps.append(perf_counter() - t0)
        speed.catch_up(sum(steps))
        match_instr.append(result.match_instr)
    observed = {
        "halted": interp.halted,
        "cycles": interp.cycle,
        "tasks": trace.n_tasks,
        "match_instr": match_instr,
        "speedups": [match_instr[0] / v for v in match_instr],
    }
    return [s / speed.factor for s in steps], speed.factor, observed


def reference(source: str) -> Dict[str, object]:
    built, _parts = program.build(source, "sequential", {}, HostSpeed())
    return run_once(built)[2]


def measure(source: str, expected: Dict[str, object], seconds: float,
            trace: bool) -> Measurement:
    m = Measurement()
    m.setup, parts, built = sample_setup(
        lambda speed: program.build(source, "sequential", {}, speed),
        lambda b: None,
        seconds,
    )
    reps = Repetitions(seconds)
    while True:
        (steps, factor, observed), clean = reps.run(lambda: run_once(built))
        m.add(sum(steps), steps, factor, clean)
        m.attempted += len(CONFIGS)
        if not observed["halted"] or observed != expected:
            bad = [k for k in expected if observed[k] != expected[k]]
            m.fail(len(CONFIGS), f"simulated results differ: {', '.join(bad)}")
        if reps.enough():
            break
    m.exact = {"cycles": observed["cycles"], "tasks": observed["tasks"]}
    for config, value in zip(CONFIGS, observed["match_instr"]):
        m.exact["match_instr." + "-".join(map(str, config[:3]))] = value
    record_s = median([steps[0] for steps in m.kept(m.steps)])
    sweep_s = median([sum(steps[1:]) for steps in m.kept(m.steps)])
    m.rates = {"sim_tasks_per_s": len(CONFIGS) * observed["tasks"] / sweep_s}
    if trace:
        # The spans of this workload are its steps: there is no call
        # from the recorder or the simulator back into another layer.
        m.layers = program.setup_layers(source, built, parts)
        m.layers.update({
            "ops5.interpreter.cycles": observed["cycles"],
            "rete.trace.record_s": record_s,
            "rete.trace.tasks": observed["tasks"],
            "simulator.engine.simulate_s": sweep_s,
            "simulator.engine.tasks_per_s": m.rates["sim_tasks_per_s"],
            "bench.host_speed_x": median(m.kept(m.speed)),
            "bench.traced_run_s": m.run_s,
            "bench.trace_overhead_x": 1.0,
        })
    return m
