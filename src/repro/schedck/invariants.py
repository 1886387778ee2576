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
``amplification``
    Match work stays within a constant per WM change of the sequential
    engine's (:func:`check_amplification`).
"""

from __future__ import annotations

from collections import Counter
from typing import Counter as CounterT, List, Tuple

from ..check import Finding, describe_diff

CensusKey = Tuple[int, str, tuple, int]


def memory_census(memory) -> CounterT[CensusKey]:
    """Multiset of ``(node_id, side, token_key, not_count)`` over all
    two-input node memories (``not_count`` is -1 for a plain token, a
    tuple; a not node's left entry is the list ``[token, key, count]``)
    — one walk over each table, however many nodes share it."""
    census: CounterT[CensusKey] = Counter()
    for side, table in (("L", memory.left), ("R", memory.right)):
        for (node_id, _key), bucket in table.items():
            for item in bucket:
                count = item[2] if isinstance(item, list) else -1
                census[(node_id, side, item[1], count)] += 1
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


#: Tokens the parallel engine may emit beyond the sequential count, per
#: WM change processed so far (derivation: :func:`check_amplification`).
AMPLIFICATION_PER_CHANGE = 8


def check_amplification(batch: int, parallel_stats, sequential_stats) -> List[Finding]:
    """Bounded amplification: cumulative parallel ``tokens_emitted`` is
    at most the sequential count plus :data:`AMPLIFICATION_PER_CHANGE`
    per WM change — additive in the batch, never multiplicative in
    chain depth (CORGI's per-change bound applied to the eager engine).

    The excess retract-before-assert leaves: a WME that is both left
    input and blocker of one not-node races itself, and when the left
    activation wins the node emits a ``+`` the right one takes back —
    two tokens per such rule; the fuzz corpus has at most 4 rules,
    hence 8.  Measured: ``--sweep 200 --seed 0`` worst 2.0 per change
    (5 seeds above sequential at all), seeds 0-2015 and 5000-6007 worst
    4.0, both pinned workloads *below* sequential; the removed
    conjugate-storm livelock ran > 200 per change.
    """
    par, seq = parallel_stats.tokens_emitted, sequential_stats.tokens_emitted
    changes = sequential_stats.wme_changes
    if par <= seq + AMPLIFICATION_PER_CHANGE * changes:
        return []
    detail = (
        f"tokens_emitted {par} > sequential {seq} + "
        f"{AMPLIFICATION_PER_CHANGE} x {changes} WM changes"
    )
    return [Finding("amplification", batch, detail)]


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
