"""``repro.perf`` — the continuous performance observatory.

The paper's contribution is nine tables of measurements; this package
keeps those measurements *alive*.  It runs a declarative registry of
scenarios (:mod:`~repro.perf.scenarios`) with warm-up and repetition
(:mod:`~repro.perf.runner`), emits schema-versioned machine-readable
``BENCH_<runid>.json`` artifacts (:mod:`~repro.perf.schema`), maintains
the append-only ``benchmarks/trajectory.jsonl`` history
(:mod:`~repro.perf.report`), and gates regressions with robust
MAD-based thresholds plus hot-spot attribution from :mod:`repro.obs`
profiles (:mod:`~repro.perf.compare`).  CLI: ``repro bench
run|compare|report``; workflow and schema: docs/PERF.md.
"""

from ..cli import Registry
from .compare import CompareResult, MetricDelta, Mover, compare_docs
from .report import load_trajectory, render_markdown, trajectory_entry
from .runner import run_suite
from .scenarios import SCENARIOS, MetricSpec, Scenario, select
from .schema import SCHEMA_ID, validate_bench_doc

__all__ = [
    "SCENARIOS",
    "SCHEMA_ID",
    "CompareResult",
    "MetricDelta",
    "MetricSpec",
    "Mover",
    "Scenario",
    "compare_docs",
    "load_trajectory",
    "render_markdown",
    "run_suite",
    "select",
    "trajectory_entry",
    "validate_bench_doc",
]

#: The ``repro bench`` group.
BENCH: Registry = {
    "run": ("repro.perf.runner", "run a scenario suite; write a BENCH_<runid>.json"),
    "compare": ("repro.perf.compare", "classify metric movement vs a baseline run"),
    "report": ("repro.perf.report", "render the trajectory as markdown"),
}
VERBS = {"bench": BENCH}
