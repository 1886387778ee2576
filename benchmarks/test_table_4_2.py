"""Table 4-2: tokens examined in the opposite memory, linear vs hash.

Shape criteria: hashing reduces the examined counts wherever linear
scans are long; Tourney is the extreme case in at least one direction
(the cross-product memories).
"""

from repro.harness import experiments


def test_table_4_2(emit):
    result = experiments.table_4_2()
    emit("table_4_2", result.report)

    for prog, entry in result.data.items():
        m = entry["measured"]
        # Hashing never makes the scans longer on the left side, where
        # the long chains live in all three programs.
        assert m["hash_left"] <= m["lin_left"] + 0.5, prog

    tourney = result.data["tourney"]["measured"]
    weaver = result.data["weaver"]["measured"]
    # Tourney's linear scans dwarf everyone else's (cross-products).
    assert tourney["lin_left"] > weaver["lin_left"]
    assert tourney["lin_left"] > 5 * tourney["hash_left"]


def test_table_4_3(emit):
    result = experiments.table_4_3()
    emit("table_4_3", result.report)

    for prog, entry in result.data.items():
        m = entry["measured"]
        assert m["hash_left"] <= m["lin_left"] + 0.5, prog
        assert m["hash_right"] <= m["lin_right"] + 0.5, prog
