"""corgi — the bounded-cost match engine (TREAT/CORGI family).

See :mod:`repro.corgi.engine` for the design and
:mod:`repro.corgi.diffcheck` for the differential-fuzzing harness that
holds it to the sequential Rete engine's behaviour.
"""

from .engine import CorgiMatcher
from .plan import MemPlan, RulePlan, SlotPlan, compile_plans, memory_layout

__all__ = ["CorgiMatcher", "MemPlan", "RulePlan", "SlotPlan", "compile_plans",
           "memory_layout"]
