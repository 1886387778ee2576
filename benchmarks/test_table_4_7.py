"""Table 4-7: contention for the single central task queue.

Shape criteria: spins-per-acquisition start at ~1 for 1+1 and grow
steeply with the process count for Weaver and Rubik, mildly for Tourney
(whose processes are stalled on the hash line instead of hammering the
queue).
"""

from repro.harness import experiments


def test_table_4_7(emit):
    result = experiments.table_4_7()
    emit("table_4_7", result.report)

    for prog, entry in result.data.items():
        spins = entry["spins"]
        # No contention with a single match process.
        assert spins[0] < 1.2, prog
        # Contention grows monotonically (within 5% noise) with processes.
        for a, b in zip(spins, spins[1:]):
            assert b > a * 0.95, (prog, spins)
        # And is substantial by 1+13.
        assert spins[-1] > 3.0, prog
