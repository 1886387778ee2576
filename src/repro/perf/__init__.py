"""``repro.perf`` — the deterministic counter gate.

The paper reports counted numbers any host reproduces (tokens examined,
spins, the simulated speed-up columns) and timed ones that need one
trusted clock.  The clock is ``bench/``; this package keeps the counted
half honest.  It runs a declarative registry of scenarios
(:mod:`~repro.perf.scenarios`) once each (:mod:`~repro.perf.runner`),
writes their counters as a byte-stable ``BENCH_<suite>.json``
(:mod:`~repro.perf.schema`), and compares them exactly against the
committed baseline, naming the productions and nodes whose match counts
moved (:mod:`~repro.perf.compare`).  CLI: ``repro bench run|compare``;
workflow and schema: docs/PERF.md.
"""

from ..cli import Registry
from .compare import CompareResult, MetricDelta, Mover, compare_docs
from .runner import run_suite
from .scenarios import SCENARIOS, Scenario, select
from .schema import SCHEMA_ID, validate_bench_doc

__all__ = [
    "SCENARIOS",
    "SCHEMA_ID",
    "CompareResult",
    "MetricDelta",
    "Mover",
    "Scenario",
    "compare_docs",
    "run_suite",
    "select",
    "validate_bench_doc",
]

#: The ``repro bench`` group.
BENCH: Registry = {
    "run": ("repro.perf.runner", "run a scenario suite once; write BENCH_<suite>.json"),
    "compare": ("repro.perf.compare", "exact counter gate vs the committed baseline"),
}
VERBS = {"bench": BENCH}
