"""Conflict set and conflict-resolution strategies (LEX and MEA).

The conflict set holds *instantiations* — (production, ordered WME list)
pairs delivered by the terminal nodes.  Conflict resolution picks the
instantiation to fire:

* **Refraction** — an instantiation fires at most once; firing removes
  it from the conflict set (it becomes eligible again only if match
  re-derives it, e.g. when a negated condition toggles).
* **LEX** — order instantiations by their timetags sorted descending,
  compared lexicographically (most recent first); if one tag list is a
  prefix of the other, the longer dominates; ties broken by
  specificity, then deterministically by name/timetags so runs are
  reproducible.
* **MEA** — like LEX but the timetag of the WME matching the *first*
  condition element is compared before anything else.

In parallel mode conflict-set deltas can arrive out of order (a remove
before its add), so the set is maintained with signed counts; the
control process applies all of a cycle's deltas before selecting, at
which point every count must be 0 or 1 (checked by ``validate``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .astnodes import Production
from .errors import RuntimeOps5Error
from ..rete.token import Token, fmt


@dataclass(frozen=True)
class Instantiation:
    """A satisfied production with the WMEs that satisfy it."""

    production: Production
    token: Token

    @property
    def key(self) -> Tuple[str, Tuple[int, ...]]:
        return (self.production.name, self.token[1])

    def __str__(self) -> str:
        return f"{self.production.name} {fmt(self.token)}"


class ConflictSet:
    """The set of currently satisfied instantiations, with signed counts,
    and the *agenda*: its eligible members in conflict-resolution order.

    *Present* means count > 0; *eligible* means present and not fired.
    ``apply`` and ``mark_fired`` keep the agenda and the counters, so a
    cycle costs what its deltas cost, whatever the size of the set: an
    instantiation's sort key is built once, by the first ``best`` after
    it is admitted, and one retracted before then never pays for a key.
    """

    def __init__(self, strict: bool = True) -> None:
        self._strict = strict
        #: key -> [production, token, signed count, sort key while on
        #: the agenda else None]; a count of 0 has no entry.
        self._entries: Dict[Tuple[str, Tuple[int, ...]], list] = {}
        self._fired: set = set()
        self._present = 0  # entries with count > 0
        self._total = 0  # sum of all counts
        #: Sort keys of the keyed eligible entries, ascending under
        #: ``_order``; each ends in its entry's key, so sort keys are unique
        #: and lead back to the entry.  Admissions since the last ``best``
        #: wait, unkeyed, in ``_pending``.
        self._order = _lex_sort_key
        self._agenda: list = []
        self._pending: List[Tuple[str, Tuple[int, ...]]] = []

    def __len__(self) -> int:
        return self._present

    def apply(self, production: Production, token: Token, sign: int) -> None:
        key = (production.name, token[1])
        entry = self._entries.get(key)
        before = 0 if entry is None else entry[2]
        count = before + sign
        if self._strict and (count < 0 or count > 1):
            raise RuntimeOps5Error(
                f"conflict set corrupt: {Instantiation(production, token)} "
                f"reached count {count}"
            )
        self._total += sign
        if count == 0:
            del self._entries[key]
            # The instantiation left the conflict set; if it re-enters
            # later (e.g. a negated condition toggled), it may fire again.
            self._fired.discard(key)
        elif entry is None:
            self._entries[key] = [production, token, count, None]
        else:
            entry[2] = count
        if count > 0 >= before:
            self._present += 1
            self._pending.append(key)
        elif before > 0 >= count:
            self._present -= 1
            self._leave_agenda(entry)

    def mark_fired(self, inst: Instantiation) -> None:
        """Refraction: the instantiation stays in the set but is no
        longer eligible for selection while it remains there."""
        key = inst.key
        self._fired.add(key)
        entry = self._entries.get(key)
        if entry is not None:
            self._leave_agenda(entry)

    def _leave_agenda(self, entry: list) -> None:
        if entry[3] is not None:
            del self._agenda[bisect_left(self._agenda, entry[3])]
            entry[3] = None

    def best(self, order) -> Optional[Instantiation]:
        """The eligible instantiation ranking highest under the sort-key
        function ``order``, or None; touches only entries admitted since
        the last call (all of them, once, when ``order`` changes)."""
        entries, agenda = self._entries, self._agenda
        if order is not self._order:
            self._order = order
            for entry in entries.values():
                entry[3] = None
            agenda.clear()
            self._pending = list(entries)
        if self._pending:
            fresh = []
            for key in self._pending:
                entry = entries.get(key)
                if (entry is not None and entry[2] > 0 and entry[3] is None
                        and key not in self._fired):
                    entry[3] = sort_key = order(entry[0], entry[1][1])
                    fresh.append(sort_key)
            self._pending = []
            if len(fresh) > len(agenda):
                # First load or change of order: one timsort, not an insort apiece.
                agenda.extend(fresh)
                agenda.sort()
            else:
                for sort_key in fresh:
                    insort(agenda, sort_key)
        if not agenda:
            return None
        return Instantiation(*entries[agenda[-1][-2:]][:2])

    def validate(self) -> None:
        """Check that every entry has count exactly 1 (post-cycle invariant)."""
        # No entry has count 0, so all are exactly 1 iff none is negative
        # (entries == present) and the counts sum to their number.
        if not len(self._entries) == self._present == self._total:
            bad = [(k, e[2]) for k, e in self._entries.items() if e[2] != 1]
            raise RuntimeOps5Error(f"conflict set counts out of range: {bad[:5]}")

    def instantiations(self) -> List[Instantiation]:
        """Every present instantiation, fired or not."""
        return [Instantiation(e[0], e[1]) for e in self._entries.values() if e[2] > 0]

    def __contains__(self, key: Tuple[str, Tuple[int, ...]]) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry[2] > 0


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _lex_sort_key(production: Production, timetags: Tuple[int, ...]):
    # Descending recency (tuple comparison lets the longer list win
    # when one is a prefix of the other), then specificity; the final
    # name/timetag components make the order total and deterministic —
    # and are the entry's key, which the agenda relies on.
    return (
        tuple(sorted(timetags, reverse=True)),
        production.specificity(),
        production.name,
        timetags,
    )


def _mea_sort_key(production: Production, timetags: Tuple[int, ...]):
    return (timetags[0] if timetags else 0,) + _lex_sort_key(production, timetags)


class Strategy:
    """A conflict-resolution strategy: one total order over the agenda."""

    name = "base"

    @staticmethod
    def sort_key(production: Production, timetags: Tuple[int, ...]):
        raise NotImplementedError

    def select(self, cs: ConflictSet) -> Optional[Instantiation]:
        return cs.best(self.sort_key)


class LexStrategy(Strategy):
    name = "lex"
    sort_key = staticmethod(_lex_sort_key)


class MeaStrategy(Strategy):
    name = "mea"
    sort_key = staticmethod(_mea_sort_key)


def make_strategy(name: str) -> Strategy:
    if name == "lex":
        return LexStrategy()
    if name == "mea":
        return MeaStrategy()
    raise ValueError(f"unknown strategy {name!r}")
