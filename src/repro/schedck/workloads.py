"""Pinned schedck workloads: named program + batch fixtures.

The schedule harness normally derives its workload from the seed via
:mod:`repro.schedck.progen`; the regressions worth keeping, though,
are *pinned* — a fixed program and fixed WME batches whose behaviour
under a fixed schedule is an executable fact.  This registry gives
those fixtures a name the CLI can replay (``repro check schedck --workload
NAME``), so a failing pinned test prints a paste-ready command instead
of "see the test file".

Both are amplification regressions: while a batch's ``+`` and ``-``
changes raced, a join that held the old and the new WME of one modify
multiplied tokens per chain level.  The threaded engine now retracts
before it asserts, and ``tests/schedck/test_deep_chain.py`` and
``test_conjugate_storm.py`` hold them to no more match work than
sequential.

``deep-chain``
    A 4-level chain, every level above the base modified in one batch
    — once a transient token blow-up under a *thread schedule* that
    delays the delete halves behind the add halves
    (``adversarial:delay-deletes``).

``conjugate-storm``
    The *dispatch*-side sibling: a deeper chain with a width-2 cross
    product per level, modified in one conjugate-heavy batch — the
    rubik recognize-act cycle's match-phase shape distilled.  Once a
    livelock under round-robin dispatch with one queue per worker
    (``burst:50``, 2 workers, 2 queues).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..ops5.wme import WMEChange, WorkingMemory

#: A 4-level chain: every class joins the next on the shared variable,
#: like Rubik's deep rotation rules (22 CEs in the original).
DEEP_CHAIN = "(p chain (c0 ^a <x>) (c1 ^a <x>) (c2 ^a <x>) (c3 ^a <x>) --> (halt))"

def _chain_program(levels: int) -> str:
    ces = " ".join(f"(c{i} ^a <x>)" for i in range(levels))
    return f"(p chain {ces} --> (halt))"


def deep_chain_case() -> Tuple[str, List[List[WMEChange]]]:
    """Batch 1 builds the chain; batch 2 modifies every level above the
    base — the delete and re-add of each WME travel in one batch."""
    wm = WorkingMemory()
    base = [wm.add(f"c{i}", {"a": 1}) for i in range(4)]
    batch1 = [WMEChange(1, w) for w in base]
    batch2 = []
    for wme in base[1:]:
        old, new = wm.modify(wme, {"a": 1})
        batch2.append(WMEChange(-1, old))
        batch2.append(WMEChange(1, new))
    return DEEP_CHAIN, [batch1, batch2]


def conjugate_storm_case(
    levels: int = 8, rounds: int = 1, width: int = 2
) -> Tuple[str, List[List[WMEChange]]]:
    """Build a ``levels``-deep chain with ``width`` WMEs per class,
    then ``rounds`` batches each modifying every WME above the base
    level — each round puts ``2 * width * (levels-1)`` conjugate
    halves in flight at once, the way rubik's rotation productions
    churn the cube state every cycle.  ``width > 1`` gives every join
    level a cross product, so a delete half that lagged its insert
    half would double-count *width-fold* per level.

    The defaults are the pinned shape of
    ``tests/schedck/test_conjugate_storm.py``, so the registry entry
    replays it exactly."""
    wm = WorkingMemory()
    current = [
        [wm.add(f"c{i}", {"a": 1}) for _ in range(width)] for i in range(levels)
    ]
    batches = [[WMEChange(1, w) for row in current for w in row]]
    for _ in range(rounds):
        batch = []
        for li in range(1, levels):
            for wi in range(width):
                old, new = wm.modify(current[li][wi], {"a": 1})
                current[li][wi] = new
                batch.append(WMEChange(-1, old))
                batch.append(WMEChange(1, new))
        batches.append(batch)
    return _chain_program(levels), batches


#: Name -> zero-argument fixture factory, for ``--workload`` replay.
WORKLOADS: Dict[str, Callable[[], Tuple[str, List[List[WMEChange]]]]] = {
    "deep-chain": deep_chain_case,
    "conjugate-storm": conjugate_storm_case,
}
