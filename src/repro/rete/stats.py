"""Match instrumentation.

Collects exactly the statistics the paper reports:

* total WM changes processed and total node activations (Table 4-1),
* tokens examined in the *opposite* memory per two-input activation,
  split by side, counted only when the opposite memory is non-empty
  (Table 4-2),
* tokens examined in the *same* memory when locating the target of a
  delete, split by side (Table 4-3).

The counters are plain integers bumped with ``+=`` from the match inner
loop — no recording method stands between a node and its counter — and
everything derived (the activation total, the per-kind view, the means)
is computed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class MatchStats:
    """Counter block attached to a matcher for one run."""

    wme_changes: int = 0

    # Node activations (Table 4-1): every beta node bumps the total,
    # negated and terminal nodes their own kind as well — joins are the
    # rest, so the code two-input nodes share counts without knowing
    # which kind it runs for.
    node_activations: int = 0
    not_activations: int = 0
    term_activations: int = 0

    # Constant-test (alpha) network.
    constant_tests: int = 0
    alpha_passes: int = 0

    # Tokens examined in the opposite memory (only when non-empty).
    opp_examined_left: int = 0
    opp_count_left: int = 0
    opp_examined_right: int = 0
    opp_count_right: int = 0

    # Tokens examined in the same memory while locating a delete target.
    same_del_examined_left: int = 0
    same_del_count_left: int = 0
    same_del_examined_right: int = 0
    same_del_count_right: int = 0

    # Output tokens produced by two-input nodes.
    tokens_emitted: int = 0

    # Conflict-set insertions/deletions.
    cs_changes: int = 0

    def merge(self, other: "MatchStats") -> "MatchStats":
        """Add ``other``'s counters into this block (the parallel
        engines' per-worker roll-up).  Walks the dataclass fields, so a
        counter added above is merged without being listed here."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def activations_by_kind(self) -> Dict[str, int]:
        """Activations per node kind; a kind that never ran is absent."""
        by_kind = {
            "join": self.node_activations - self.not_activations - self.term_activations,
            "not": self.not_activations,
            "term": self.term_activations,
        }
        return {kind: n for kind, n in by_kind.items() if n}

    # -- derived means (the numbers printed in Tables 4-2 / 4-3) --------

    @property
    def mean_opp_left(self) -> float:
        return self.opp_examined_left / self.opp_count_left if self.opp_count_left else 0.0

    @property
    def mean_opp_right(self) -> float:
        return self.opp_examined_right / self.opp_count_right if self.opp_count_right else 0.0

    @property
    def mean_same_del_left(self) -> float:
        return (
            self.same_del_examined_left / self.same_del_count_left
            if self.same_del_count_left
            else 0.0
        )

    @property
    def mean_same_del_right(self) -> float:
        return (
            self.same_del_examined_right / self.same_del_count_right
            if self.same_del_count_right
            else 0.0
        )

    def summary(self) -> Dict[str, float]:
        """A flat dict of every derived statistic, for reports/tests."""
        return {
            "wme_changes": self.wme_changes,
            "node_activations": self.node_activations,
            "constant_tests": self.constant_tests,
            "tokens_emitted": self.tokens_emitted,
            "cs_changes": self.cs_changes,
            "mean_opp_left": self.mean_opp_left,
            "mean_opp_right": self.mean_opp_right,
            "mean_same_del_left": self.mean_same_del_left,
            "mean_same_del_right": self.mean_same_del_right,
        }
