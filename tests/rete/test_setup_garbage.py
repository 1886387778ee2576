"""Set-up leaves no cyclic garbage.

``parse_program``, ``ReteNetwork.compile``, ``CompiledRHS`` and corgi's
``compile_plans`` run with the cyclic collector paused
(:mod:`repro.ops5.collector`).  That is safe because set-up creates no
reference cycle that becomes garbage before it returns, so a collection
during set-up could reclaim nothing.  This test holds set-up to it.
Each step runs under ``gc.DEBUG_SAVEALL``, which keeps every object a
collection finds unreachable in ``gc.garbage``, and the collection after
the step must find none.  (Before the rule, one weaver compile left
2 121 cycles, one per condition element: a local function that called
itself.)
"""

import gc

import pytest

from repro.engines import make_matcher
from repro.ops5.parser import parse_program
from repro.ops5.rhs import CompiledRHS
from repro.programs import rubik, tourney, weaver
from repro.rete.network import ReteNetwork

SOURCES = {
    "weaver": lambda: weaver.source(grid=8, n_nets=4),
    "rubik": lambda: rubik.source(n_moves=16, seed=1),
    "tourney": lambda: tourney.source(n_teams=26, n_rounds=40),
}


@pytest.fixture
def saveall():
    """Run a step and return what the collection after it found."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def found_after(step):
        product = step()
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
        # Free what was found with the debug flag off: cleared under it,
        # the same cycles would be found (and saved) again.
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        return product, garbage

    try:
        yield found_after
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_set_up_leaves_no_cyclic_garbage(name, saveall):
    source = SOURCES[name]()
    program, garbage = saveall(lambda: parse_program(source))
    assert garbage == [], "parse_program"
    network, garbage = saveall(lambda: ReteNetwork.compile(program))
    assert garbage == [], "ReteNetwork.compile"
    rhs, garbage = saveall(lambda: [CompiledRHS(p) for p in program.productions])
    assert garbage == [], "CompiledRHS"
    for engine in ("sequential", "corgi"):
        _matcher, garbage = saveall(lambda: make_matcher(engine, network))
        assert garbage == [], f"make_matcher({engine!r})"
