"""Table 4-4: interpreted ('Franz Lisp') vs compiled ('C / vs2') matcher.

Our substitution compresses the gap (Python closures vs Python
descriptor dispatch, instead of NS32032 machine code vs a Lisp
interpreter — see DESIGN.md), so the asserted shape is: the compiled
matcher wins overall, and Tourney — the program the paper reports the
largest factor for (24.6×) — shows the largest factor here too.
"""

import pytest

from repro.harness import experiments

pytestmark = pytest.mark.host_time  # every number here is a wall-clock ratio


def test_table_4_4(emit):
    result = experiments.table_4_4()
    emit("table_4_4", result.report)

    factors = {prog: entry["speedup"] for prog, entry in result.data.items()}
    # Compiled+hash wins on the programs with real token populations.
    assert factors["tourney"] > 1.3
    assert factors["weaver"] > 1.0
    # Tourney gains the most, as in the paper.
    assert factors["tourney"] >= max(factors.values()) - 1e-9
    # And the overall direction holds on average.
    assert sum(factors.values()) / len(factors) > 1.15
