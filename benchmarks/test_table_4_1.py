"""Table 4-1: uniprocessor vs1 (linear memories) vs vs2 (hash memories).

Shape criteria (DESIGN.md): vs2 is at least as fast as vs1 for every
program, and the vs1/vs2 ratio is largest for Tourney and smallest for
Weaver — the paper's ordering (3.46 > 2.43 > 1.18).
"""

import pytest

from repro.harness import experiments


@pytest.mark.host_time  # asserts vs1/vs2 wall-clock ratios
def test_table_4_1(emit):
    result = experiments.table_4_1()
    emit("table_4_1", result.report)

    ratios = {}
    for prog, entry in result.data.items():
        assert entry["vs2_s"] > 0
        ratios[prog] = entry["vs1_s"] / entry["vs2_s"]
        # vs2 (hash) must not lose to vs1 (linear) by more than noise.
        assert ratios[prog] > 0.95, f"{prog}: hash memories slower than linear"
        # Counters are populated and identical across memory systems.
        assert entry["wm_changes"] > 500
        assert entry["activations"] > 10000

    # Tourney benefits most from hashing, Weaver least (paper ordering).
    assert ratios["tourney"] > ratios["weaver"]
    assert ratios["tourney"] > 1.2


def test_activation_counts_match_between_memories():
    """vs1 and vs2 perform the same logical match: identical change and
    activation counts (the memory system changes *scan lengths* only —
    total two-input activations are equal by construction)."""
    from repro.harness.workloads import counted_run

    for prog in ("tourney", "rubik"):
        lin = counted_run(prog, memory="linear")
        hsh = counted_run(prog, memory="hash")
        assert lin.wme_changes == hsh.wme_changes
        assert lin.node_activations == hsh.node_activations
