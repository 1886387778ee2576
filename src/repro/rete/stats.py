"""Match instrumentation.

Collects exactly the statistics the paper reports:

* total WM changes processed and total node activations (Table 4-1),
* tokens examined in the *opposite* memory per two-input activation,
  split by side, counted only when the opposite memory is non-empty
  (Table 4-2),
* tokens examined in the *same* memory when locating the target of a
  delete, split by side (Table 4-3).

The counters are plain integers bumped from the match inner loop, so
keeping them cheap matters; derived means are computed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class MatchStats:
    """Counter block attached to a matcher for one run."""

    wme_changes: int = 0
    node_activations: int = 0
    activations_by_kind: Dict[str, int] = field(default_factory=dict)

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
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(theirs, dict):
                for key, n in theirs.items():
                    mine[key] = mine.get(key, 0) + n
            else:
                setattr(self, f.name, mine + theirs)
        return self

    def record_activation(self, kind: str) -> None:
        self.node_activations += 1
        self.activations_by_kind[kind] = self.activations_by_kind.get(kind, 0) + 1

    def record_opposite(self, side: str, examined: int) -> None:
        """Record an opposite-memory scan of ``examined`` tokens.

        Matches the paper's convention: activations finding an *empty*
        opposite memory are excluded from the average.
        """
        if examined <= 0:
            return
        if side == "L":
            self.opp_examined_left += examined
            self.opp_count_left += 1
        else:
            self.opp_examined_right += examined
            self.opp_count_right += 1

    def record_same_delete(self, side: str, examined: int) -> None:
        if side == "L":
            self.same_del_examined_left += examined
            self.same_del_count_left += 1
        else:
            self.same_del_examined_right += examined
            self.same_del_count_right += 1

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
