"""Registries and helpers for the cross-engine conformance suite.

``ENGINES`` maps an engine name to the ``Interpreter`` keyword options
that select it — adding an engine to the suite is one more entry
here, nothing else.  The eight bundled workloads (``PROGRAMS``) and the
run-to-comparison-tuple helper are :mod:`repro.check`'s — the same
whole-program proof the ``repro check`` batteries build on.

Sequential runs are the reference: each engine's complete firing trace
(rendered to one canonical string), final working memory, ``write``
output, and halt flag must be byte-identical to the sequential run of
the same program.  Reference results are computed once per program and
cached for the whole session.
"""

from __future__ import annotations

import pytest

from repro.check import PROGRAMS, run_program

#: Engine name -> Interpreter(engine=..., engine_opts=...) selections.
#: A new backend joins the conformance matrix by adding one line.
#:
#: The base threaded row runs one task queue per worker;
#: ``threaded@3-queues`` adds a queue no worker calls home, reachable
#: only by steals.
ENGINES = {
    "sequential": dict(engine="sequential", engine_opts={}),
    "threaded": dict(engine="threaded",
                     engine_opts={"n_workers": 2, "n_queues": 2}),
    "threaded@3-queues": dict(engine="threaded",
                              engine_opts={"n_workers": 2, "n_queues": 3}),
    "mp": dict(engine="mp", engine_opts={"n_workers": 2}),
    "corgi": dict(engine="corgi", engine_opts={}),
}


def run_engine(source: str, engine_name: str):
    """Run ``source`` on one engine; returns the conformance tuple."""
    return run_program(source, **ENGINES[engine_name])


@pytest.fixture(scope="session")
def reference():
    """Cached sequential reference results, one per program."""
    cache = {}

    def get(program_name: str):
        if program_name not in cache:
            cache[program_name] = run_engine(
                PROGRAMS[program_name](), "sequential"
            )
        return cache[program_name]

    return get
