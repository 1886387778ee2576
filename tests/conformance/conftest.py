"""Registries and helpers for the cross-engine conformance suite.

``ENGINES`` maps an engine name to the ``Interpreter`` keyword options
that select it — adding an engine to the suite is one more entry
here, nothing else.  The eight bundled workloads (``PROGRAMS``) and the
run-to-comparison-tuple helper are :mod:`repro.check`'s — the same
whole-program proof the ``policyck`` battery runs.

Sequential runs are the reference: each engine's complete firing trace
(rendered to one canonical string), final working memory, ``write``
output, and halt flag must be byte-identical to the sequential run of
the same program.  Reference results are computed once per program and
cached for the whole session.
"""

from __future__ import annotations

import pytest

from repro.check import PROGRAMS, run_program
from repro.parallel.policy import POLICY_NAMES

#: Engine name -> Interpreter(engine=..., engine_opts=...) selections.
#: A new backend joins the conformance matrix by adding one line; a
#: new dispatch policy joins it automatically via the registry loop
#: below (and the registry-sync guard in test_conformance.py fails if
#: the loop and :data:`repro.parallel.policy.POLICY_NAMES` drift).
#:
#: Every threaded row runs one task queue per worker (the base row is
#: the default round-robin dispatch); ``threaded@3-queues`` adds a
#: queue no worker calls home, reachable only by steals.
#: ``mp@affinity`` covers the blocked shard placement, the other
#: placement half of the same policy objects.
ENGINES = {
    "sequential": dict(engine="sequential", engine_opts={}),
    "threaded": dict(engine="threaded",
                     engine_opts={"n_workers": 2, "n_queues": 2}),
    "threaded@3-queues": dict(engine="threaded",
                              engine_opts={"n_workers": 2, "n_queues": 3}),
    "mp": dict(engine="mp", engine_opts={"n_workers": 2}),
    "corgi": dict(engine="corgi", engine_opts={}),
}
for _policy in POLICY_NAMES:
    if _policy == "round-robin":
        continue  # the base "threaded" row
    ENGINES[f"threaded@{_policy}"] = dict(
        engine="threaded",
        engine_opts={"n_workers": 2, "n_queues": 2, "policy": _policy},
    )
ENGINES["mp@affinity"] = dict(
    engine="mp", engine_opts={"n_workers": 2, "policy": "affinity"}
)


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
