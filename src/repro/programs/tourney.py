"""Tourney — the 17-rule tournament scheduler (Bill Barabash's in the paper).

A greedy round-robin scheduler: each round, repeatedly pick two free
teams that have not yet played each other, schedule the match, and mark
both busy; when no pickable pair remains the round notes byes, resets
the teams and opens the next round.  After the last round it reports
the match count and halts.

The program's match profile is dominated by ``propose-match`` — the
paper's *cross-product culprit*: its two ``(team ...)`` condition
elements share **no** variables (only a ``>`` ordering test), so the
two-input node joining them has no equality tests, its hash key is
empty, and every token for the node lands in a *single* hash-table
line.  Worse — in the natural OPS5 style of keeping a running count on
the control element — ``propose-match`` modifies the ``(tourney)`` WME
it matches, so *every* firing tears down and re-derives the node's
whole left memory: a burst of ~2·N same-line activations, each
scanning the whole opposite memory.  That is precisely the behaviour
behind the paper's Tourney results: ~2.5× speed-up ceiling that
*declines* as processes are added (Tables 4-5/4-6), extreme
line-lock contention (Table 4-9), and huge token scans under linear
memories (Tables 4-2/4-3).

:func:`fixed_source` applies the paper's §4.2 remedy ("modifying two
such productions using domain specific knowledge"): teams are split
into pools and the pairing rules join on the pool attribute, giving the
node real equality keys that spread its tokens across lines — the
paper reports this lifted 1+13 speed-up from 2.7× to 5.1×.

Rule inventory (17 productions): make-team, end-seed, start-round,
propose-match, round-done, note-bye, byes-done, reset-team, next-round,
report, five verify-* rules, audit-unplayed, audit-done.
"""

from __future__ import annotations

from typing import List

DEFAULT_TEAMS = 20
DEFAULT_ROUNDS = 24

_LITERALIZE = """
(literalize roster id pool)
(literalize team id free pool)
(literalize tourney round state max count)
(literalize phase step)
(literalize match id round t1 t2)
(literalize played lo hi)
(literalize error kind)
"""

# Rules 1-2: seeding phase — turn roster entries into team WMEs.
_SEEDING = """
(p make-team
  (phase ^step seed)
  (roster ^id <i> ^pool <p>)
  -->
  (make team ^id <i> ^free yes ^pool <p>)
  (remove 2))

(p end-seed
  (phase ^step seed)
  - (roster)
  -->
  (modify 1 ^step run))
"""

# Rule 3: open a round.
_START_ROUND = """
(p start-round
  (tourney ^round <r> ^state idle ^max >= <r>)
  (phase ^step run)
  -->
  (modify 1 ^state pairing))
"""

# Rule 4: THE cross-product production.  CE2 and CE3 share no
# variables; the only inter-element test is the `>` ordering, which is
# not an equality, so the join has an empty hash key — and the count
# update on CE1 re-derives the join's left memory every firing.
_PROPOSE = """
(p propose-match
  (tourney ^round <r> ^state pairing ^count <c>)
  (team ^id <t1> ^free yes)
  (team ^id { <t2> > <t1> } ^free yes)
  - (played ^lo <t1> ^hi <t2>)
  -->
  (make match ^id (compute <t1> * 100 + <t2>) ^round <r> ^t1 <t1> ^t2 <t2>)
  (make played ^lo <t1> ^hi <t2>)
  (modify 2 ^free no)
  (modify 3 ^free no)
  (modify 1 ^count (compute <c> + 1)))
"""

# Rule 5: fallback when no pair can be proposed (fewer condition
# elements, so LEX prefers propose-match while any instantiation of it
# exists — the classic OPS5 specificity idiom).
_ROUND_DONE = """
(p round-done
  (tourney ^round <r> ^state pairing)
  -->
  (modify 1 ^state byes))
"""

# Rules 6-7: note the teams left without an opponent, then move on
# (refraction lets note-bye fire once per (tourney, team) pair).
_BYES = """
(p note-bye
  (tourney ^round <r> ^state byes)
  (team ^id <t> ^free yes)
  -->
  (write round <r> bye for team <t>))

(p byes-done
  (tourney ^round <r> ^state byes)
  -->
  (modify 1 ^state reset))
"""

# Rules 8-9: reset for the next round.
_RESET = """
(p reset-team
  (tourney ^round <r> ^state reset)
  (team ^id <t> ^free no)
  -->
  (modify 2 ^free yes))

(p next-round
  (tourney ^round <r> ^state reset ^max <m>)
  - (team ^free no)
  -->
  (modify 1 ^round (compute <r> + 1) ^state idle))
"""

# Rule 10: all rounds done -> report and stop.
_REPORT = """
(p report
  (tourney ^round <r> ^state idle ^max < <r> ^count <c>)
  -->
  (write scheduled <c> matches)
  (modify 1 ^state done)
  (halt))
"""

# Rules 11-15: verification.  These never fire in a correct run; their
# joins (keyed on round/team) contribute realistic match load and would
# catch scheduler bugs.
_VERIFY = """
(p verify-dup-match
  (match ^t1 <a> ^t2 <b> ^id <i>)
  (match ^t1 <a> ^t2 <b> ^id <> <i>)
  -->
  (make error ^kind duplicate-match)
  (write error duplicate match <a> <b>)
  (halt))

(p verify-clash-t1
  (match ^round <r> ^t1 <a> ^id <i>)
  (match ^round <r> ^t1 <a> ^id <> <i>)
  -->
  (make error ^kind team-clash)
  (write error team <a> plays twice in round <r>)
  (halt))

(p verify-clash-t2
  (match ^round <r> ^t2 <a> ^id <i>)
  (match ^round <r> ^t2 <a> ^id <> <i>)
  -->
  (make error ^kind team-clash)
  (write error team <a> plays twice in round <r>)
  (halt))

(p verify-clash-cross
  (match ^round <r> ^t1 <a> ^id <i>)
  (match ^round <r> ^t2 <a> ^id <> <i>)
  -->
  (make error ^kind team-clash)
  (write error team <a> plays twice in round <r>)
  (halt))

(p verify-sym-played
  (played ^lo <a> ^hi <b>)
  (played ^lo <b> ^hi <a>)
  -->
  (make error ^kind asymmetric-played)
  (write error asymmetric played <a> <b>)
  (halt))
"""

# Rules 16-17: unplayed-pair audit (reached only when a test drives the
# tourney WME into the audit state by hand).
_AUDIT = """
(p audit-unplayed
  (tourney ^state audit)
  (team ^id <t1>)
  (team ^id { <t2> > <t1> })
  - (played ^lo <t1> ^hi <t2>)
  -->
  (write unplayed pair <t1> <t2>))

(p audit-done
  (tourney ^state audit)
  -->
  (modify 1 ^state done)
  (halt))
"""


def _fixed_propose(n_pools: int = 4) -> str:
    """The §4.2 rewrite: pairing productions specialized by pool.

    Domain knowledge: teams are organized in pools, so pairing splits
    into a *same-pool* production whose team×team join is keyed on the
    pool equality, plus one production per pool *pair* whose condition
    elements carry constant pool tests — separate alpha memories of
    ~N/pools teams each, on separate hash lines.  The schedule produced
    is identical to the original's; only the match work is spread: the
    count-update burst now re-derives a handful of small left memories
    on distinct lines instead of one huge memory on a single line.
    """
    rules = ["""
(p propose-match
  (tourney ^round <r> ^state pairing ^count <c>)
  (team ^id <t1> ^free yes ^pool <p>)
  (team ^id { <t2> > <t1> } ^free yes ^pool <p>)
  - (played ^lo <t1> ^hi <t2>)
  -->
  (make match ^id (compute <t1> * 100 + <t2>) ^round <r> ^t1 <t1> ^t2 <t2>)
  (make played ^lo <t1> ^hi <t2>)
  (modify 2 ^free no)
  (modify 3 ^free no)
  (modify 1 ^count (compute <c> + 1)))
"""]
    for a in range(n_pools):
        for b in range(a + 1, n_pools):
            rules.append(f"""
(p propose-cross-p{a}-p{b}
  (tourney ^round <r> ^state pairing ^count <c>)
  (team ^id <t1> ^free yes ^pool p{a})
  (team ^id {{ <t2> <> <t1> }} ^free yes ^pool p{b})
  - (played ^lo <t1> ^hi <t2>)
  - (played ^lo <t2> ^hi <t1>)
  -->
  (make match ^id (compute <t1> * 100 + <t2>) ^round <r> ^t1 <t1> ^t2 <t2>)
  (make played ^lo <t1> ^hi <t2>)
  (modify 2 ^free no)
  (modify 3 ^free no)
  (modify 1 ^count (compute <c> + 1)))
""")
    return "\n".join(rules)


def startup_block(n_teams: int, n_rounds: int, n_pools: int = 4) -> str:
    lines = ["(startup"]
    for i in range(1, n_teams + 1):
        pool = (i - 1) % n_pools
        lines.append(f"  (make roster ^id {i} ^pool p{pool})")
    lines.append("  (make phase ^step seed)")
    lines.append(f"  (make tourney ^round 1 ^state idle ^max {n_rounds} ^count 0))")
    return "\n".join(lines)


def rules() -> str:
    """The rule set alone (no startup) — the service layer seeds the
    roster and tourney control WMEs through WM transactions."""
    return "\n".join(
        [
            _LITERALIZE,
            _SEEDING,
            _START_ROUND,
            _PROPOSE,
            _ROUND_DONE,
            _BYES,
            _RESET,
            _REPORT,
            _VERIFY,
            _AUDIT,
        ]
    )


def source(n_teams: int = DEFAULT_TEAMS, n_rounds: int = DEFAULT_ROUNDS) -> str:
    """The original Tourney (cross-product ``propose-match``)."""
    return "\n".join(
        [
            _LITERALIZE,
            _SEEDING,
            _START_ROUND,
            _PROPOSE,
            _ROUND_DONE,
            _BYES,
            _RESET,
            _REPORT,
            _VERIFY,
            _AUDIT,
            startup_block(n_teams, n_rounds),
        ]
    )


def fixed_source(n_teams: int = DEFAULT_TEAMS, n_rounds: int = DEFAULT_ROUNDS) -> str:
    """Tourney with the two culprit productions rewritten (§4.2)."""
    return "\n".join(
        [
            _LITERALIZE,
            _SEEDING,
            _START_ROUND,
            _fixed_propose(),
            _ROUND_DONE,
            _BYES,
            _RESET,
            _REPORT,
            _VERIFY,
            _AUDIT,
            startup_block(n_teams, n_rounds),
        ]
    )


def n_rules() -> int:
    """17 productions, matching the paper (both variants)."""
    return 17
