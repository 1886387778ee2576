"""Unit tests for the conflict set and LEX/MEA strategies."""

import pytest

from repro.ops5.astnodes import ConditionElement, HaltAction, Production
from repro.ops5.conflict import ConflictSet, Instantiation, LexStrategy, MeaStrategy, make_strategy
from repro.ops5.errors import RuntimeOps5Error
from repro.ops5.parser import parse_production
from repro.ops5.wme import WME
from repro.rete.token import Token, of


def prod(name: str, n_ces: int = 1, extra_tests: int = 0) -> Production:
    tests = " ".join(f"^a{i} 1" for i in range(extra_tests))
    ces = " ".join(f"(c{i} {tests})" for i in range(n_ces))
    return parse_production(f"(p {name} {ces} --> (halt))")


def token(*timetags: int) -> Token:
    return of(tuple(WME.make("c", {}, t) for t in timetags))


class TestConflictSet:
    def test_add_and_select(self):
        cs = ConflictSet()
        cs.apply(prod("r"), token(1), +1)
        assert len(cs) == 1
        assert LexStrategy().select(cs) is not None

    def test_remove(self):
        cs = ConflictSet()
        p = prod("r")
        cs.apply(p, token(1), +1)
        cs.apply(p, token(1), -1)
        assert len(cs) == 0

    def test_strict_rejects_double_add(self):
        cs = ConflictSet(strict=True)
        p = prod("r")
        cs.apply(p, token(1), +1)
        with pytest.raises(RuntimeOps5Error):
            cs.apply(p, token(1), +1)

    def test_double_add_message_prints_timetags(self):
        """The error names the instantiation by its timetags, never by
        the WMEs' reprs."""
        cs = ConflictSet(strict=True)
        p = prod("r", 2)
        cs.apply(p, token(3, 7), +1)
        with pytest.raises(RuntimeOps5Error) as exc:
            cs.apply(p, token(3, 7), +1)
        assert str(exc.value) == "conflict set corrupt: r [3 7] reached count 2"

    def test_strict_rejects_remove_of_absent(self):
        cs = ConflictSet(strict=True)
        with pytest.raises(RuntimeOps5Error):
            cs.apply(prod("r"), token(1), -1)

    def test_nonstrict_allows_out_of_order(self):
        cs = ConflictSet(strict=False)
        p = prod("r")
        cs.apply(p, token(1), -1)   # early delete
        cs.apply(p, token(1), +1)   # matching add arrives later
        assert len(cs) == 0
        cs.validate()

    def test_validate_catches_unbalanced(self):
        cs = ConflictSet(strict=False)
        cs.apply(prod("r"), token(1), -1)
        with pytest.raises(RuntimeOps5Error):
            cs.validate()

    def test_refraction_blocks_refire(self):
        cs = ConflictSet()
        p = prod("r")
        cs.apply(p, token(1), +1)
        inst = LexStrategy().select(cs)
        cs.mark_fired(inst)
        assert LexStrategy().select(cs) is None
        assert len(cs) == 1  # still present, just not eligible

    def test_refraction_resets_when_instantiation_leaves(self):
        cs = ConflictSet()
        p = prod("r")
        cs.apply(p, token(1), +1)
        inst = LexStrategy().select(cs)
        cs.mark_fired(inst)
        cs.apply(p, token(1), -1)   # leaves the conflict set
        cs.apply(p, token(1), +1)   # re-derived (negation toggled)
        assert LexStrategy().select(cs) is not None


class TestLex:
    def test_recency_wins(self):
        cs = ConflictSet()
        cs.apply(prod("old"), token(1), +1)
        cs.apply(prod("new"), token(5), +1)
        assert LexStrategy().select(cs).production.name == "new"

    def test_compares_sorted_descending(self):
        cs = ConflictSet()
        cs.apply(prod("a", 2), token(9, 1), +1)
        cs.apply(prod("b", 2), token(8, 7), +1)
        # (9,1) vs (8,7): 9 > 8, so a wins despite the older second tag.
        assert LexStrategy().select(cs).production.name == "a"

    def test_longer_dominates_on_prefix(self):
        cs = ConflictSet()
        cs.apply(prod("short"), token(5), +1)
        cs.apply(prod("long", 2), token(5, 3), +1)
        assert LexStrategy().select(cs).production.name == "long"

    def test_specificity_breaks_ties(self):
        cs = ConflictSet()
        cs.apply(prod("plain"), token(4), +1)
        cs.apply(prod("specific", 1, extra_tests=3), token(4), +1)
        assert LexStrategy().select(cs).production.name == "specific"

    def test_empty_set(self):
        assert LexStrategy().select(ConflictSet()) is None

    def test_deterministic_final_tiebreak(self):
        cs = ConflictSet()
        cs.apply(prod("aaa"), token(2), +1)
        cs.apply(prod("zzz"), token(2), +1)
        # Same recency and specificity: name breaks the tie, stably.
        assert LexStrategy().select(cs).production.name == "zzz"


class TestMea:
    def test_first_ce_recency_dominates(self):
        cs = ConflictSet()
        # For LEX, b would win (9 > 8); MEA compares the *first* CE's
        # timetag first: a's first CE is newer.
        cs.apply(prod("a", 2), of((WME.make("c", {}, 8), WME.make("c", {}, 2))), +1)
        cs.apply(prod("b", 2), of((WME.make("c", {}, 3), WME.make("c", {}, 9))), +1)
        assert MeaStrategy().select(cs).production.name == "a"
        assert LexStrategy().select(cs).production.name == "b"

    def test_falls_back_to_lex(self):
        cs = ConflictSet()
        cs.apply(prod("a", 2), of((WME.make("c", {}, 5), WME.make("c", {}, 2))), +1)
        cs.apply(prod("b", 2), of((WME.make("c", {}, 5), WME.make("c", {}, 7))), +1)
        assert MeaStrategy().select(cs).production.name == "b"


class TestFactory:
    def test_make_strategy(self):
        assert make_strategy("lex").name == "lex"
        assert make_strategy("mea").name == "mea"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_strategy("fifo")
