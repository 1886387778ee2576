"""Ablation benches for the design choices DESIGN.md calls out.

These sweep axes the paper fixed (or never varied) to show *why* the
system is built the way it is:

* task-queue count beyond the paper's 8,
* constant-test grouping granularity (the paper: 3-instruction
  activations are "too fine"),
* hash-table size (lines) vs contention,
* the TTAS handoff-storm penalty (what the declining Tourney columns
  cost),
* pipelining match with RHS evaluation (§3.1's design).
"""

from repro.harness.tables import render_table
from repro.harness.workloads import baseline, sim, traced_run
from repro.simulator.machine import DEFAULT_CONFIG
from repro.simulator.engine import simulate


def test_ablation_queue_count(emit):
    """Sweeping 1..16 queues at 1+13: gains saturate near the paper's 8."""

    rows = []
    for prog in ("weaver", "rubik", "tourney"):
        base = baseline(prog)
        speedups = []
        for q in (1, 2, 4, 8, 16):
            r = sim(prog, n_match=13, n_queues=q)
            speedups.append(base.match_instr / r.match_instr)
        rows.append([prog] + speedups)
    emit(
        "ablation_queue_count",
        render_table(
            "Ablation: task-queue count at 1+13 processes",
            ["program", "1q", "2q", "4q", "8q", "16q"],
            rows,
        ),
    )
    by_prog = {row[0]: row[1:] for row in rows}
    # More queues never hurt badly, and 8 captures most of the gain.
    for prog, sp in by_prog.items():
        assert sp[3] > sp[0] * 0.95, prog
        assert sp[4] < sp[3] * 1.3, (prog, "16q should not beat 8q by much")
    assert by_prog["rubik"][3] > by_prog["rubik"][0] * 1.4


def test_ablation_alpha_granularity(emit):
    """Constant-test grouping: very fine groups drown in scheduling
    overhead; very coarse groups serialize the alpha fan-out."""

    trace = traced_run("rubik").trace
    rows = []
    for group in (1, 4, 16, 64, 1024):
        cfg = DEFAULT_CONFIG.with_overrides(alpha_group_size=group)
        base = simulate(trace, n_match=1, pipelined=False, config=cfg)
        run13 = simulate(trace, n_match=13, n_queues=8, config=cfg)
        rows.append([group, base.match_seconds, base.match_instr / run13.match_instr])
    emit(
        "ablation_alpha_granularity",
        render_table(
            "Ablation: constant-test group size (Rubik, 1+13, 8 queues)",
            ["group size", "uniproc (s)", "speed-up"],
            rows,
        ),
    )
    by_group = {row[0]: row for row in rows}
    # Group size 1 pays the most uniprocessor overhead (one task per
    # 3-instruction test — the paper's "too fine a granularity").
    assert by_group[1][1] > by_group[16][1]


def test_ablation_hash_lines(emit):
    """Fewer hash lines force unrelated buckets onto shared locks."""

    from repro.ops5.interpreter import Interpreter
    from repro.rete.trace import TraceRecorder
    from repro.harness.workloads import program_source

    rows = []
    for n_lines in (16, 64, 1024):
        recorder = TraceRecorder()
        interp = Interpreter(
            program_source("rubik"), recorder=recorder,
            engine_opts={"n_lines": n_lines},
        )
        interp.run(max_cycles=50000)
        trace = recorder.trace
        base = simulate(trace, n_match=1, pipelined=False)
        r = simulate(trace, n_match=13, n_queues=8)
        rows.append(
            [n_lines, base.match_instr / r.match_instr, r.line_left.mean_spins]
        )
    emit(
        "ablation_hash_lines",
        render_table(
            "Ablation: hash-table lines (Rubik, 1+13, 8 queues)",
            ["lines", "speed-up", "left-line spins"],
            rows,
        ),
    )
    # A 16-line table suffers more line contention than a 1024-line one.
    assert rows[0][2] >= rows[-1][2] * 0.9


def test_ablation_pipelining(emit):
    """§3.1's control/match pipelining: disabling the overlap costs
    elapsed time at every process count."""

    rows = []
    for prog in ("rubik", "weaver"):
        trace = traced_run(prog).trace
        over = simulate(trace, n_match=5, n_queues=4, pipelined=True)
        serial = simulate(trace, n_match=5, n_queues=4, pipelined=False)
        rows.append([prog, over.total_instr, serial.total_instr])
    emit(
        "ablation_pipelining",
        render_table(
            "Ablation: pipelined vs serial RHS evaluation (1+5, 4 queues)",
            ["program", "pipelined (instr)", "serial (instr)"],
            rows,
        ),
    )
    for _prog, pipelined, serial in rows:
        assert pipelined <= serial * 1.02


def test_ablation_handoff_storm(emit):
    """The TTAS handoff penalty is what degrades contended lines; with
    it disabled, Tourney's ceiling rises."""

    trace = traced_run("tourney").trace
    rows = []
    for handoff in (0, 8, 24):
        cfg = DEFAULT_CONFIG.with_overrides(ttas_handoff=handoff)
        base = simulate(trace, n_match=1, pipelined=False, config=cfg)
        r = simulate(trace, n_match=13, n_queues=8, config=cfg)
        rows.append([handoff, base.match_instr / r.match_instr])
    emit(
        "ablation_handoff",
        render_table(
            "Ablation: TTAS handoff-storm penalty (Tourney, 1+13, 8 queues)",
            ["handoff (instr/waiter)", "speed-up"],
            rows,
        ),
    )
    assert rows[0][1] >= rows[-1][1]
