"""The firing order itself, pinned.

Conformance compares each engine with the sequential engine *of the
same tree*, so a change to conflict resolution that is consistent
across engines is invisible to it — and MEA has no cross-program pin at
all.  ``pinned_firings.json`` holds the cycle count and the sha256 of
the rendered firing trace (:func:`repro.check.render_trace`) for the
eight conformance programs under both strategies on the sequential
engine, plus a threaded and an mp leg on ``blocks`` and ``tourney`` (the
non-strict, signed-count path through ``ConflictSet``).  It was
generated at ``b556b5b``, *before* selection became an ordered agenda
(PR 17), when ``select`` was still ``max(eligible, key)``.

Regenerate (only when the total order changes on purpose)::

    PYTHONPATH=src python -m tests.ops5.test_pinned_firings > tests/ops5/pinned_firings.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.check import MAX_CYCLES, PROGRAMS, render_trace
from repro.ops5.interpreter import Interpreter
from tests.conformance.conftest import ENGINES

PINNED = Path(__file__).with_name("pinned_firings.json")

STRATEGIES = ("lex", "mea")
#: Programs the parallel (non-strict conflict set) legs run.
PARALLEL_PROGRAMS = ("blocks", "tourney")

LEGS = [(p, s, "sequential") for p in sorted(PROGRAMS) for s in STRATEGIES] + [
    (p, s, e)
    for p in PARALLEL_PROGRAMS
    for s in STRATEGIES
    for e in ("threaded", "mp")
]


def observe(program: str, strategy: str, engine: str) -> dict:
    interp = Interpreter(PROGRAMS[program](), strategy=strategy, **ENGINES[engine])
    try:
        result = interp.run(max_cycles=MAX_CYCLES)
    finally:
        interp.close()
    return {
        "cycles": result.cycles,
        "trace_sha256": hashlib.sha256(render_trace(result).encode()).hexdigest(),
    }


@pytest.mark.parametrize("program,strategy,engine", LEGS)
def test_firing_trace_is_the_pinned_one(program, strategy, engine):
    pinned = json.loads(PINNED.read_text())[f"{program}-{strategy}-{engine}"]
    assert observe(program, strategy, engine) == pinned


if __name__ == "__main__":
    print(json.dumps(
        {f"{p}-{s}-{e}": observe(p, s, e) for p, s, e in LEGS}, indent=1,
    ))
