"""Discrete-event simulator of PSM-E on the Encore Multimax: machine
cost model, lock model, and the trace-driven simulation engine."""

from .engine import SimOptions, SimResult, simulate, uniprocessor_baseline
from .locks import SpinStats
from .machine import DEFAULT_CONFIG, MachineConfig, task_cost

__all__ = [
    "DEFAULT_CONFIG",
    "MachineConfig",
    "SimOptions",
    "SimResult",
    "SpinStats",
    "simulate",
    "task_cost",
    "uniprocessor_baseline",
]
