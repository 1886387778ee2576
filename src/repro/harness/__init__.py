"""Experiment harness: the paper's published numbers, workload/trace
caching, experiment runners for every table, and report rendering."""

from . import paperdata
from .experiments import ALL_TABLES, ExperimentResult
from .tables import render_table
from .workloads import baseline, sim, speedup, timed_run, traced_run

__all__ = [
    "ALL_TABLES",
    "ExperimentResult",
    "baseline",
    "paperdata",
    "render_table",
    "sim",
    "speedup",
    "timed_run",
    "traced_run",
]
