"""Discrete-event simulator of PSM-E on the Encore Multimax: machine
cost model, lock model, and the trace-driven simulation engine."""

from .engine import EncoreSimulator, SimOptions, SimResult, simulate, uniprocessor_baseline
from .locks import SpinStats
from .machine import DEFAULT_CONFIG, MachineConfig, task_cost
from .report import SpeedupCurve, speedup_curve

__all__ = [
    "DEFAULT_CONFIG",
    "SpeedupCurve",
    "speedup_curve",
    "EncoreSimulator",
    "MachineConfig",
    "SimOptions",
    "SimResult",
    "SpinStats",
    "simulate",
    "task_cost",
    "uniprocessor_baseline",
]
