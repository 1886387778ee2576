"""Property-based tests for the Encore simulator.

Invariants over randomized option grids and synthetic traces:
determinism, task-count conservation, and monotone response to cost
inflation.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rete.trace import ChangeRecord, CycleRecord, MatchTrace, TaskRecord
from repro.simulator.engine import simulate
from repro.simulator.machine import DEFAULT_CONFIG


@st.composite
def synthetic_trace(draw) -> MatchTrace:
    """A random but structurally valid task DAG."""
    trace = MatchTrace()
    tid = 0
    for cycle_idx in range(draw(st.integers(1, 3))):
        cycle = CycleRecord(index=cycle_idx, production=f"p{cycle_idx}", n_rhs_actions=1)
        trace.cycles.append(cycle)
        for seq in range(draw(st.integers(1, 3))):
            change = ChangeRecord(
                seq=seq,
                n_const_tests=draw(st.integers(1, 30)),
                n_alpha_hits=1,
            )
            cycle.changes.append(change)
            # A small tree: root tasks plus a chain under the first.
            n_roots = draw(st.integers(1, 4))
            chain_len = draw(st.integers(0, 3))
            roots = []
            for r in range(n_roots):
                children = chain_len if r == 0 else 0
                trace.tasks.append(
                    TaskRecord(
                        tid=tid, parent=-1, kind="join", node_id=r + 1,
                        side="L" if r % 2 == 0 else "R", sign=1,
                        line=draw(st.integers(0, 5)),
                        opp_examined=draw(st.integers(0, 10)),
                        same_examined=0,
                        n_children=1 if children else 0,
                        change_seq=seq,
                    )
                )
                roots.append(tid)
                change.first_level.append(tid)
                tid += 1
            parent = roots[0]
            for d in range(chain_len):
                trace.tasks.append(
                    TaskRecord(
                        tid=tid, parent=parent, kind="term" if d == chain_len - 1 else "join",
                        node_id=100 + d, side="L", sign=1,
                        line=-1 if d == chain_len - 1 else draw(st.integers(0, 5)),
                        opp_examined=1, same_examined=0,
                        n_children=0 if d == chain_len - 1 else 1,
                        change_seq=seq,
                    )
                )
                parent = tid
                tid += 1
    return trace


option_grid = st.fixed_dictionaries(dict(
    n_match=st.integers(1, 6),
    n_queues=st.integers(1, 4),
    lock_scheme=st.sampled_from(["simple", "mrsw"]),
    pipelined=st.booleans(),
    hardware_scheduler=st.booleans(),
))


@settings(max_examples=40, deadline=None)
@given(trace=synthetic_trace(), options=option_grid)
def test_simulation_completes_every_task(trace, options):
    result = simulate(trace, **options)
    alpha_count = sum(
        len(__import__("repro.simulator.machine", fromlist=["alpha_tasks"]).alpha_tasks(
            ch.n_const_tests, len(ch.first_level), DEFAULT_CONFIG))
        for cyc in trace.cycles for ch in cyc.changes
    )
    assert result.tasks_completed == trace.n_tasks + alpha_count
    assert result.match_instr >= 0
    assert result.total_instr >= result.match_instr


@settings(max_examples=25, deadline=None)
@given(trace=synthetic_trace(), options=option_grid)
def test_simulation_deterministic(trace, options):
    a = simulate(trace, **options)
    b = simulate(trace, **options)
    assert a.match_instr == b.match_instr
    assert a.total_instr == b.total_instr
    assert a.queue_stats.spins == b.queue_stats.spins


@settings(max_examples=20, deadline=None)
@given(trace=synthetic_trace())
def test_cost_inflation_is_monotone(trace):
    cheap = simulate(trace, n_match=2)
    expensive = simulate(
        trace, n_match=2, config=DEFAULT_CONFIG.with_overrides(join_base=200)
    )
    assert expensive.match_instr >= cheap.match_instr


@settings(max_examples=20, deadline=None)
@given(trace=synthetic_trace(), k=st.integers(1, 6))
def test_hardware_scheduler_properties(trace, k):
    """The hardware scheduler's hard invariant is *zero queue-lock
    contention*; elapsed time is usually but not always better (its
    single LIFO dispatch order can land same-line tasks together, so a
    small scheduling-order slack is allowed)."""
    software = simulate(trace, n_match=k, n_queues=1)
    hardware = simulate(trace, n_match=k, n_queues=1, hardware_scheduler=True)
    assert hardware.queue_stats.acquisitions == 0
    assert hardware.match_instr <= software.match_instr * 1.25
