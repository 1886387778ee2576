"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings as _hypothesis_settings

from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program

# Property tests run derandomized everywhere: examples are derived from
# the test body, not a fresh RNG seed per run, so a CI failure line
# reproduces locally with no @seed() decorator archaeology and schedck
# sweep results are a pure function of the tree.  Explicitly seeded
# randomness in tests (random.Random(7) etc.) is unaffected.
_hypothesis_settings.register_profile("pinned", derandomize=True)
_hypothesis_settings.load_profile("pinned")

#: The paper's Figure 2-1 production plus a small working memory.
FIND_COLORED_BLOCK = """
(literalize goal type color)
(literalize block id color selected)
(p find-colored-block
  (goal ^type find-block ^color <c>)
  (block ^id <i> ^color <c> ^selected no)
  -->
  (modify 2 ^selected yes)
  (write selected <i>))
(startup
  (make goal ^type find-block ^color red)
  (make block ^id b1 ^color red ^selected no)
  (make block ^id b2 ^color blue ^selected no)
  (make block ^id b3 ^color red ^selected no))
"""

#: FIND_COLORED_BLOCK plus a rule that never fires (no two blocks share
#: an id): production 1, so on mp every block change has roots on
#: matcher 1, a forked worker, besides matcher 0's.
SPREAD = FIND_COLORED_BLOCK + (
    "(p twin (block ^id <i> ^color <c>) (block ^id <i> ^color <> <c>) --> (halt))\n")

#: The paper's Figure 2-2 productions p1 and p2 (network-structure demo).
FIGURE_2_2 = """
(p p1
  (C1 ^attr1 <x> ^attr2 12)
  (C2 ^attr1 15 ^attr2 <x>)
  - (C3 ^attr1 <x>)
  -->
  (remove 2))
(p p2
  (C2 ^attr1 15 ^attr2 <y>)
  (C4 ^attr1 <y>)
  -->
  (modify 1 ^attr1 12))
"""


@pytest.fixture
def figure_2_1():
    return FIND_COLORED_BLOCK


@pytest.fixture
def figure_2_2():
    return FIGURE_2_2


def run_program(source: str, max_cycles: int = 1000, **kw):
    """Parse, run, and return (Interpreter, RunResult)."""
    interp = Interpreter(source, **kw)
    result = interp.run(max_cycles=max_cycles)
    return interp, result


def conflict_snapshot(interp: Interpreter):
    """A canonical, comparable view of the conflict set."""
    return sorted(
        (inst.production.name, inst.token[1])
        for inst in interp.conflict_set.instantiations()
    )
