"""Table 4-6: speed-up with multiple task queues (1/2/4/8) and simple locks.

Shape criteria: multiple queues lift Weaver and Rubik substantially at
high process counts (paper: Weaver 3.9→8.2, Rubik 6.3→11.4) while
Tourney barely moves (2.4→2.3) — its bottleneck is the hash-table line,
not the queue.
"""

from repro.harness import experiments


def test_table_4_6(emit):
    result = experiments.table_4_6()
    emit("table_4_6", result.report)

    multi = {prog: entry["speedups"] for prog, entry in result.data.items()}
    single = {
        prog: entry["speedups"]
        for prog, entry in experiments.table_4_5().data.items()
    }

    # Multiple queues help Rubik and Weaver a lot at 1+13 ...
    assert multi["rubik"][-1] > single["rubik"][-1] * 1.5
    assert multi["weaver"][-1] > single["weaver"][-1] * 1.2
    # ... and Tourney much less (its serialization is the hash line).
    tourney_gain = multi["tourney"][-1] / single["tourney"][-1]
    rubik_gain = multi["rubik"][-1] / single["rubik"][-1]
    assert tourney_gain < rubik_gain

    # Rubik approaches the paper's 11.4x at 1+13 with 8 queues.
    assert multi["rubik"][-1] > 9.0
    # Ordering preserved.
    assert multi["rubik"][-1] > multi["weaver"][-1] > multi["tourney"][-1]


def test_queue_contention_drops_with_multiple_queues():
    """The paper's narrative: going 1→8 queues slashes queue-lock
    contention (24.6→4.9 spins for Weaver at 13 processes)."""
    from repro.harness.workloads import sim

    for prog in ("weaver", "rubik"):
        one = sim(prog, n_match=13, n_queues=1).queue_stats.mean_spins
        eight = sim(prog, n_match=13, n_queues=8).queue_stats.mean_spins
        assert eight < one, prog
