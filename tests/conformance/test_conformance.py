"""Cross-engine differential conformance: every bundled program, every
engine, byte-identical behaviour.

The contract under test is the strongest one the paper's parallel
decomposition promises: parallel match changes *how* the conflict set
is computed, never *what* the recognize-act cycle does.  Firing traces
(cycle, production, timetags) must therefore match the sequential
engine exactly — not just final WM — because conflict resolution runs
over the full conflict set every cycle, and any divergence in match
results shows up as a different winner somewhere.
"""

from __future__ import annotations

import pytest

from tests.conformance.conftest import ENGINES, PROGRAMS, run_engine

PARALLEL_ENGINES = [name for name in ENGINES if name != "sequential"]


@pytest.mark.parametrize("engine_name", PARALLEL_ENGINES)
@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_engine_matches_sequential(program_name, engine_name, reference):
    expected = reference(program_name)
    got = run_engine(PROGRAMS[program_name](), engine_name)

    assert got["trace"] == expected["trace"], (
        f"{engine_name} fired differently than sequential on "
        f"{program_name}"
    )
    assert got["wm"] == expected["wm"]
    assert got["output"] == expected["output"]
    assert got["halted"] == expected["halted"]
    assert got["cycles"] == expected["cycles"]


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_reference_is_meaningful(program_name, reference):
    """Guard the suite itself: every reference run actually fires
    productions and finishes inside the cycle budget, so a trivially
    empty trace can never green-light the parallel engines."""
    expected = reference(program_name)
    assert expected["trace"], f"{program_name} reference fired nothing"
    assert expected["cycles"] > 0


def test_every_engine_is_covered():
    """The matrix covers exactly the registered engines (a new engine
    added to ``repro.engines`` must be added to the suite too)."""
    from repro.engines import ENGINE_NAMES

    assert {name.split("@")[0] for name in ENGINES} == set(ENGINE_NAMES)
