"""Table 4-5: speed-up with a single task queue and simple line locks.

Shape criteria: every program saturates well below linear speed-up —
Rubik highest (paper 6.3×), Weaver mid (3.9×), Tourney lowest (2.4×);
adding processes beyond 1+7 buys Tourney nothing.
"""

from repro.harness import experiments
from repro.harness.paperdata import PROCS


def test_table_4_5(emit):
    result = experiments.table_4_5()
    emit("table_4_5", result.report)

    sp = {prog: entry["speedups"] for prog, entry in result.data.items()}

    for prog in sp:
        # 1+1 is within a few percent of the uniprocessor run.
        assert 0.9 <= sp[prog][0] <= 1.2, prog
        # Speed-ups grow through 1+5 ...
        assert sp[prog][2] > sp[prog][1] > sp[prog][0], prog

    # Saturation: the 1+13 single-queue speed-up is far below 13.
    for prog in sp:
        assert sp[prog][-1] < 8.0, prog

    # Program ordering at 1+13 matches the paper: Rubik > Weaver > Tourney.
    assert sp["rubik"][-1] > sp["weaver"][-1] > sp["tourney"][-1]

    # Rubik lands in the paper's neighbourhood (6.30).
    assert 5.0 < sp["rubik"][-1] < 8.0
    # Tourney is stuck near the paper's ~2.4 plateau.
    assert sp["tourney"][-1] < 4.0
    # Tourney gains essentially nothing past 1+5 (paper: 2.70 -> 2.41).
    assert sp["tourney"][-1] < sp["tourney"][2] * 1.35
