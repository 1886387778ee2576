"""Table 4-8: multiple task queues + MRSW hash-table line locks.

Shape criteria: the MRSW scheme costs uniprocessor time (paper: +3-13%)
but keeps the high-end speed-ups in the same band as simple locks —
the paper's conclusion is that the added complexity was *not* worth it
("trying to handle rare cases efficiently can slow down the normal
case").
"""

from repro.harness import experiments
from repro.harness.workloads import baseline


def test_table_4_8(emit):
    result = experiments.table_4_8()
    emit("table_4_8", result.report)

    sp = {prog: entry["speedups"] for prog, entry in result.data.items()}

    # MRSW raises the uniprocessor execution time for every program
    # (Table 4-8's uniproc column vs Table 4-6's).
    for prog in sp:
        simple_s = baseline(prog, lock_scheme="simple").match_instr
        mrsw_s = baseline(prog, lock_scheme="mrsw").match_instr
        assert mrsw_s > simple_s, prog
        overhead = mrsw_s / simple_s - 1.0
        assert overhead < 0.35, (prog, overhead)

    # Speed-up ordering preserved under MRSW.
    assert sp["rubik"][-1] > sp["weaver"][-1] >= sp["tourney"][-1]
    # Rubik stays in the paper's ~11-12.4x neighbourhood.
    assert sp["rubik"][-1] > 9.0
    # Divergence note (EXPERIMENTS.md): the model's MRSW serialises only
    # a line's memory updates, ~1/29 of Tourney's work on its busiest
    # line, so reader concurrency lifts it where it did not on the
    # Multimax (more teams lift it further); it still trails the others.
    assert sp["tourney"][-1] < sp["rubik"][-1] * 0.75
