"""Spans recorded from outside the program, and the proxies that record them.

The traced repetition of a workload wraps every call the interpreter
makes into a layer — the matcher's ``process_changes``, the strategy's
``select``, ``ConflictSet.apply``, each ``CompiledRHS.execute`` — in a
thin proxy that notes ``(layer, start, end, parent)`` in memory.  The
parent is the recognise-act cycle (or startup, or serve transaction)
that caused the call, so one cycle's spans share an identifier.  A
layer's busy time is the sum of its spans; the time of a parent span
that no child covers is the interpreter's own and is reported as
``ops5.interpreter.unaccounted_s``, which is what makes the ledger
close.

Nothing here is installed during timed repetitions.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

#: Span layers, named after the module whose call they bracket.
STEP = "ops5.interpreter.step"
STARTUP = "ops5.interpreter.startup"
MATCH = "match.process_changes"
SELECT = "ops5.conflict.select"
APPLY = "ops5.conflict.apply"
ACT = "ops5.rhs.act"

#: (layer, start_s, end_s, parent id, calls folded into this span)
Span = Tuple[str, float, float, int, int]


class SpanLog:
    """In-memory span store for one traced repetition."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Identifier of the cycle/transaction currently running; 0 is
        #: startup, cycles count from 1.
        self.parent = 0
        # ConflictSet.apply runs once per conflict-set delta (260 k
        # times on tourney-cross), so consecutive calls under one
        # parent fold into a single span: first call's start, last
        # call's end.
        self._apply_t0 = 0.0
        self._apply_t1 = 0.0
        self._apply_parent = 0
        self._apply_calls = 0

    def add(self, layer: str, t0: float, t1: float) -> None:
        self._close_apply()
        self.spans.append((layer, t0, t1, self.parent, 1))

    def add_parent(self, layer: str, t0: float, t1: float) -> None:
        """Record the enclosing span of the current parent id."""
        self._close_apply()
        self.spans.append((layer, t0, t1, -1, 1))

    def wrap_apply(self, apply):
        """``ConflictSet.apply`` with its calls folded into spans."""

        def traced_apply(production, token, sign):
            if not self._apply_calls:
                self._apply_parent = self.parent
                self._apply_t0 = perf_counter()
            apply(production, token, sign)
            self._apply_t1 = perf_counter()
            self._apply_calls += 1

        return traced_apply

    def _close_apply(self) -> None:
        if self._apply_calls:
            self.spans.append(
                (APPLY, self._apply_t0, self._apply_t1, self._apply_parent,
                 self._apply_calls)
            )
            self._apply_calls = 0

    # -- aggregation ----------------------------------------------------

    def busy(self) -> Dict[str, float]:
        """Seconds inside each child layer (the layers do not nest)."""
        out: Dict[str, float] = {}
        for layer, t0, t1, parent, _calls in self.spans:
            if parent >= 0:
                out[layer] = out.get(layer, 0.0) + (t1 - t0)
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for layer, _t0, _t1, _parent, calls in self.spans:
            out[layer] = out.get(layer, 0) + calls
        return out

    def parent_self_time(self) -> float:
        """Parent-span time no child span covers."""
        total = sum(t1 - t0 for _l, t0, t1, p, _c in self.spans if p < 0)
        return total - sum(self.busy().values())

    def to_json(self) -> List[list]:
        return [list(span) for span in self.spans]


class MatcherProxy:
    """Stands in for the matcher handed to ``Interpreter(matcher=...)``."""

    def __init__(self, matcher, log: SpanLog) -> None:
        self._matcher = matcher
        self._log = log

    def process_changes(self, changes):
        t0 = perf_counter()
        deltas = self._matcher.process_changes(changes)
        self._log.add(MATCH, t0, perf_counter())
        return deltas

    def __getattr__(self, name):  # stats, strict_cs, close, ipc_counters ...
        return getattr(self._matcher, name)


class RhsProxy:
    """Stands in for one ``CompiledRHS`` in the ``rhs_table``."""

    def __init__(self, rhs, log: SpanLog) -> None:
        self._rhs = rhs
        self._log = log

    def execute(self, wm, token, input_values=None):
        t0 = perf_counter()
        env = self._rhs.execute(wm, token, input_values)
        self._log.add(ACT, t0, perf_counter())
        return env


class StrategyProxy:
    """Stands in for ``Interpreter.strategy``."""

    def __init__(self, strategy, log: SpanLog) -> None:
        self._strategy = strategy
        self._log = log

    def select(self, cs):
        t0 = perf_counter()
        inst = self._strategy.select(cs)
        self._log.add(SELECT, t0, perf_counter())
        return inst


def install(interp, log: SpanLog) -> None:
    """Wrap ``interp.strategy`` and ``interp.conflict_set.apply``.

    The matcher and RHS proxies go in through the constructor
    (``matcher=``, ``rhs_table=``); these two are public attributes.
    """
    interp.strategy = StrategyProxy(interp.strategy, log)
    interp.conflict_set.apply = log.wrap_apply(interp.conflict_set.apply)
