"""Working memory: elements (WMEs) and the working memory store.

A WME is an immutable record ``(class, {attr: value})`` stamped with a
*timetag* — the monotonically increasing counter OPS5 conflict
resolution uses to rank recency.  ``modify`` is implemented, exactly as
in the paper, as a *remove* followed by a *make* (the new element gets a
fresh timetag).
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .astnodes import Constant
from .errors import RuntimeOps5Error


@dataclass(frozen=True)
class WME:
    """A working memory element.

    ``attrs`` is stored as a tuple of sorted ``(attr, value)`` pairs so
    the object is hashable; ``vals`` is a cached dict view of the same
    pairs (excluded from equality/hash) because attribute lookup sits on
    the match inner loop.  Two WMEs with identical class and attributes
    but different timetags are *different* working-memory elements.
    """

    klass: str
    attrs: Tuple[Tuple[str, Constant], ...]
    timetag: int
    vals: Dict[str, Constant] = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.vals and self.attrs:
            object.__setattr__(self, "vals", dict(self.attrs))

    @staticmethod
    def make(klass: str, attrs: Mapping[str, Constant], timetag: int) -> "WME":
        items = tuple(sorted(attrs.items()))
        return WME(klass=klass, attrs=items, timetag=timetag)

    def get(self, attr: str, default: Optional[Constant] = None) -> Optional[Constant]:
        """Value of ``attr``, or ``default`` when the attribute is absent."""
        return self.vals.get(attr, default)

    @property
    def as_dict(self) -> Dict[str, Constant]:
        return dict(self.attrs)

    def with_updates(self, updates: Mapping[str, Constant], timetag: int) -> "WME":
        """A copy with ``updates`` applied and a new timetag (for modify)."""
        merged = self.as_dict
        merged.update(updates)
        return WME.make(self.klass, merged, timetag)

    def __str__(self) -> str:
        parts = " ".join(f"^{a} {v}" for a, v in self.attrs)
        return f"({self.klass} {parts})" if parts else f"({self.klass})"

    def __reduce__(self):
        # Pickle the element, not its ``vals`` cache: ``__post_init__``
        # rebuilds it on load.
        return WME, (self.klass, self.attrs, self.timetag)


#: A pickle names the class by this code (2 bytes), not by its module
#: and name (24): WMEs cross the mp pipes.  The code is from the range
#: :mod:`copyreg` leaves to applications.
copyreg.add_extension(__name__, "WME", 0xF0)


@dataclass(frozen=True)
class WMEChange:
    """One change to working memory: ``sign`` is ``+1`` (add) or ``-1``."""

    sign: int
    wme: WME

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"bad change sign {self.sign}")


class WorkingMemory:
    """The mutable store of WMEs plus the timetag counter.

    The store indexes elements by timetag (for removal by conflict-set
    instantiations).
    """

    def __init__(self) -> None:
        self._by_timetag: Dict[int, WME] = {}
        self._next_timetag = 1

    def __len__(self) -> int:
        return len(self._by_timetag)

    def __iter__(self) -> Iterator[WME]:
        return iter(self._by_timetag.values())

    def __contains__(self, wme: WME) -> bool:
        return self._by_timetag.get(wme.timetag) is wme

    def next_timetag(self) -> int:
        tag = self._next_timetag
        self._next_timetag += 1
        return tag

    def add(self, klass: str, attrs: Mapping[str, Constant]) -> WME:
        """Create a WME with a fresh timetag and insert it."""
        wme = WME.make(klass, attrs, self.next_timetag())
        self._insert(wme)
        return wme

    def _insert(self, wme: WME) -> None:
        if wme.timetag in self._by_timetag:
            raise RuntimeOps5Error(f"duplicate timetag {wme.timetag}")
        self._by_timetag[wme.timetag] = wme

    def remove(self, wme: WME) -> None:
        """Delete ``wme``; raises if it is not (or no longer) present."""
        if self._by_timetag.pop(wme.timetag, None) is None:
            raise RuntimeOps5Error(f"removing absent WME (timetag {wme.timetag})")

    def modify(self, wme: WME, updates: Mapping[str, Constant]) -> Tuple[WME, WME]:
        """Remove ``wme`` and add its updated copy; returns (old, new)."""
        self.remove(wme)
        new = wme.with_updates(updates, self.next_timetag())
        self._insert(new)
        return wme, new

    def by_timetag(self, timetag: int) -> Optional[WME]:
        return self._by_timetag.get(timetag)

    def snapshot(self) -> List[WME]:
        """All WMEs ordered by timetag — a stable, copyable view."""
        return [self._by_timetag[t] for t in sorted(self._by_timetag)]
