"""Table 4-9: contention for the token hash-table line locks.

Shape criteria: Tourney's left-side contention dominates everything
else (the cross-product line); contention grows from 6 to 12 processes;
left-side contention exceeds right-side for every program (the paper's
table shows the same asymmetry: beta tokens churn more than WMEs).
"""

from repro.harness import experiments


def test_table_4_9(emit):
    result = experiments.table_4_9()
    emit("table_4_9", result.report)

    data = result.data

    for prog in data:
        simple6 = data[prog][("simple", 6)]
        simple12 = data[prog][("simple", 12)]
        # Contention grows with processes.
        assert simple12["left"] >= simple6["left"] * 0.9, prog
        # Left dominates right under simple locks.
        assert simple12["left"] >= simple12["right"], prog

    # Tourney is the contention outlier, as in the paper (377.7 vs
    # 51.2/23.0 at 12 processes).
    t12 = data["tourney"][("simple", 12)]["left"]
    assert t12 > data["weaver"][("simple", 12)]["left"]
    assert t12 > data["rubik"][("simple", 12)]["left"]


def test_mrsw_requeues_concentrate_in_tourney():
    """Only contended, both-sided lines force MRSW requeues; Tourney's
    cross-product line is where they show up."""
    from repro.harness.workloads import sim

    tourney = sim("tourney", n_match=12, n_queues=8, lock_scheme="mrsw").requeues
    rubik = sim("rubik", n_match=12, n_queues=8, lock_scheme="mrsw").requeues
    assert tourney >= rubik
