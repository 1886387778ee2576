"""Quiescence-point invariants for the parallel engine (§3.2).

Checked after every ``process_changes`` batch, against the sequential
matcher run in lockstep on the *same* WME objects — on top of the
conflict-set equality every battery gets from :mod:`repro.check`:

``taskcount``
    TaskCount is zero at quiescence and was never observed negative.
``extra_deletes``
    The conjugate extra-deletes lists are empty at the fixpoint — every
    early ``-`` met its ``+`` twin.
``memory_census``
    The token hash memories hold exactly the sequential matcher's token
    multiset: no duplicated tokens (same token stored twice on one node
    side), no orphans (tokens the sequential run never stored, e.g.
    both halves of an in-flight modify), no losses, and identical
    negated-node match counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Counter as CounterT, List, Tuple

from ..check import Finding, describe_diff
from ..rete.memories import NotEntry

CensusKey = Tuple[int, str, tuple, int]


def memory_census(memory) -> CounterT[CensusKey]:
    """Multiset of ``(node_id, side, token_key, not_count)`` over all
    two-input node memories (``not_count`` is -1 for plain tokens) —
    one walk over each table, however many nodes share it."""
    census: CounterT[CensusKey] = Counter()
    for side, table in (("L", memory.left), ("R", memory.right)):
        for (node_id, _key), bucket in table.items():
            for item in bucket:
                count = item.count if isinstance(item, NotEntry) else -1
                census[(node_id, side, item.key, count)] += 1
    return census


def check_census(
    batch: int, parallel_census: CounterT, sequential_census: CounterT
) -> List[Finding]:
    if parallel_census == sequential_census:
        return []
    extra = parallel_census - sequential_census
    missing = sequential_census - parallel_census
    out = [
        Finding("memory_census", batch, describe_diff(extra, missing))
    ]
    dupes = Counter(
        {k: n for k, n in parallel_census.items() if n > 1 and sequential_census[k] <= 1}
    )
    if dupes:
        out.append(
            Finding(
                "memory_census",
                batch,
                f"duplicated tokens: {sorted(dupes)[:4]!r}",
            )
        )
    return out


def check_quiescence(batch: int, matcher) -> List[Finding]:
    """Engine-side invariants on a quiesced :class:`ParallelMatcher`."""
    out: List[Finding] = []
    if matcher.taskcount.value != 0:
        out.append(
            Finding(
                "taskcount", batch, f"non-zero at quiescence: {matcher.taskcount.value}"
            )
        )
    if matcher.taskcount.min_value < 0:
        out.append(
            Finding(
                "taskcount", batch, f"went negative: min {matcher.taskcount.min_value}"
            )
        )
    pending = matcher.memory.pending_deletes
    if pending:
        out.append(
            Finding("extra_deletes", batch, f"{pending} deletes still parked")
        )
    return out
