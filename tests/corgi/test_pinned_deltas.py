"""Corgi's conflict-set delta stream and link transitions, pinned.

``pinned_deltas.json`` holds what :class:`CorgiMatcher` produced at
``734cd35`` — before its state was rebuilt around shared alpha memories
— for three programs and one serve session: a SHA-256 over every
``process_changes`` call's *sorted* ``production timetags sign`` lines
(``ConflictSet``'s order is total, so the order of deltas inside one
batch cannot reach a firing; the multiset per batch can), and the final
``unlinks`` / ``relinks`` counts, which are a property of the WM
history, not of the implementation.  ``tokens_emitted`` and
``gate_prunes`` are ceilings: a change may derive less, never more.
``lazy_skips`` and ``node_activations`` are deliberately not pinned
(docs/PERF.md says what they count).  ``EXACT`` pins those two counts
and the link transitions exactly, at the benchmark's sizes, so a
rewrite of the enumeration that derived or pruned less fails too.

Regenerate (only when the delta stream changes on purpose)::

    PYTHONPATH=src python tests/corgi/test_pinned_deltas.py > tests/corgi/pinned_deltas.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.ops5.interpreter import Interpreter
from repro.programs import rubik, tourney, weaver
from repro.serve.netcache import NetworkCache
from repro.serve.session import SessionCore
from repro.serve.traffic import build

PINNED = Path(__file__).with_name("pinned_deltas.json")


class _DeltaHash:
    """Wraps a matcher's ``process_changes`` and hashes what it returns."""

    def __init__(self, matcher) -> None:
        self.sha = hashlib.sha256()
        self.batches = 0
        inner = matcher.process_changes

        def process_changes(changes):
            deltas = inner(changes)
            for line in sorted(
                f"{production.name} {token[1]} {sign}"
                for production, token, sign in deltas
            ):
                self.sha.update(line.encode() + b"\n")
            self.sha.update(b"--\n")
            self.batches += 1
            return deltas

        matcher.process_changes = process_changes


def _program(source: str):
    interp = Interpreter(source, engine="corgi")
    tap = _DeltaHash(interp.matcher)
    interp.run(max_cycles=5000)
    return interp, tap


def _blocks_session():
    traffic = build("blocks", 0, 60, 1988)
    entry, _cached = NetworkCache().get(traffic.program)
    core = SessionCore("pin", entry, engine="corgi")
    # startup ran inside the constructor; the session's transactions
    # are what a serve worker replays.
    tap = _DeltaHash(core.interp.matcher)
    for txn in traffic.txns:
        core.transact(txn.ops, txn.max_cycles)
    return core.interp, tap


CASES = {
    "weaver": lambda: _program(weaver.source(grid=5, n_nets=5)),
    "rubik": lambda: _program(rubik.source(n_moves=4, seed=7)),
    "tourney": lambda: _program(tourney.source(n_teams=10, n_rounds=6)),
    "blocks-session": _blocks_session,
}


def observe(case: str) -> dict:
    interp, tap = CASES[case]()
    try:
        matcher = interp.matcher
        return {
            "batches": tap.batches,
            "deltas_sha256": tap.sha.hexdigest(),
            "unlinks": matcher.counters["unlinks"],
            "relinks": matcher.counters["relinks"],
            "tokens_emitted_max": matcher.stats.tokens_emitted,
            "gate_prunes_max": matcher.counters["gate_prunes"],
        }
    finally:
        interp.close()


#: ``(tokens_emitted, gate_prunes, unlinks, relinks)`` of a whole run
#: at the sizes of ``bench/workloads.py``, observed at ``6d70790`` (the
#: depth-first enumerator, one frame per partial instantiation).
EXACT = {
    "rubik": (lambda: rubik.source(n_moves=16, seed=1988), (87877, 5338, 3760, 3824)),
    "tourney": (lambda: tourney.source(n_teams=26, n_rounds=40),
                (323349, 28665, 922, 927)),
    "weaver": (lambda: weaver.source(grid=8, n_nets=4), (8331, 7721, 2698, 2698)),
}


@pytest.mark.parametrize("program", sorted(EXACT))
def test_derivation_counts_are_exactly_the_pinned_ones(program):
    source, pinned = EXACT[program]
    interp = Interpreter(source(), engine="corgi")
    try:
        interp.run()
        matcher = interp.matcher
        counters = matcher.counters
        assert (
            matcher.stats.tokens_emitted,
            counters["gate_prunes"],
            counters["unlinks"],
            counters["relinks"],
        ) == pinned
    finally:
        interp.close()


@pytest.mark.parametrize("case", sorted(CASES))
def test_delta_stream_and_link_transitions_are_the_pinned_ones(case):
    pinned = json.loads(PINNED.read_text())[case]
    seen = observe(case)
    for exact in ("batches", "deltas_sha256", "unlinks", "relinks"):
        assert seen[exact] == pinned[exact], exact
    for ceiling in ("tokens_emitted_max", "gate_prunes_max"):
        assert seen[ceiling] <= pinned[ceiling], ceiling


if __name__ == "__main__":
    print(json.dumps({case: observe(case) for case in sorted(CASES)}, indent=1))
