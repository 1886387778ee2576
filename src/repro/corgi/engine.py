"""The corgi match engine: bounded-cost matching without beta memories.

Where Rete stores every partial join result (beta tokens) and pays for
cross-products eagerly, corgi stores only *alpha* memories — per
(production, condition-element) hash-bucketed WME sets — and re-derives
full instantiations on demand, in the TREAT/CORGI tradition
(PAPERS.md).  Three mechanisms bound the cost:

**Left/right unlinking.**  A production is *linked* only while every
positive slot memory is non-empty.  While any one is empty no
instantiation can exist, so the engine skips all join work for that
production — an add costs one hash insert, O(1).  This is what keeps
the cross-product stressors polynomial: Rete builds the full N x N
intermediate token set even when the third CE never matches; corgi
never enumerates until the demand (a complete candidate) exists.

**Lazy join evaluation.**  Adds seed enumeration *from the changed
WME*: only combinations containing the new WME are derived, walking
positive slots in CE order through the same hash keys and residual
tests the Rete two-input nodes use.  When one WME matches several
slots of one production, each combination is generated exactly once —
at the *first* slot it occupies (earlier slots exclude it, later ones
include it).

**Hoisted negation gates.**  A negated slot is checked as soon as the
positive prefix it references is bound (``SlotPlan.needed``), not at
its CE position.  A constant blocker gates the whole production at
depth 0, pruning the entire enumeration — the deep-chain-negation
blow-up becomes O(1) per change while the blocker stands.

Equivalence with Rete (the conformance contract) holds because within
a single WM change an instantiation never transiently appears *and*
disappears in Rete's delta stream, so the net per-change delta corgi
computes leaves the conflict set byte-identical after every change —
and the firing trace follows from the conflict set alone.

Deletes mirror strict Rete semantics: deleting a WME unknown to a slot
memory raises, exactly like a ``-`` token with no stored ``+`` twin.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import events as _obs
from ..obs import flight as _flight
from ..ops5.wme import WME, WMEChange
from ..rete.kernel import alpha_pass
from ..rete.matcher import Matcher
from ..rete.network import ReteNetwork
from ..rete.nodes import CSDelta
from ..rete.stats import MatchStats
from ..rete.token import ADD, DELETE, Token
from .plan import RulePlan, SlotPlan, compile_plans


class _SlotMem:
    """One slot's alpha memory: eq-join key -> {timetag: WME}."""

    __slots__ = ("buckets", "size")

    def __init__(self) -> None:
        self.buckets: Dict[tuple, Dict[int, WME]] = {}
        self.size = 0

    def insert(self, key: tuple, wme: WME) -> None:
        self.buckets.setdefault(key, {})[wme.timetag] = wme
        self.size += 1

    def remove(self, key: tuple, wme: WME) -> bool:
        bucket = self.buckets.get(key)
        if not bucket or wme.timetag not in bucket:
            return False
        del bucket[wme.timetag]
        if not bucket:
            del self.buckets[key]
        self.size -= 1
        return True


class _RuleState:
    """Mutable per-production state: slot memories + derived matches."""

    __slots__ = ("plan", "mems", "cs", "linked")

    def __init__(self, plan: RulePlan) -> None:
        self.plan = plan
        self.mems = [_SlotMem() for _ in plan.slots]
        #: Current instantiations, token.key -> Token — the engine's
        #: only derived state, and it is exactly the conflict set's
        #: view of this production (no intermediate tokens exist).
        self.cs: Dict[Tuple[int, ...], Token] = {}
        self.linked = False

    def check_linked(self) -> bool:
        self.linked = all(
            self.mems[s.index].size > 0 for s in self.plan.pos_slots
        )
        return self.linked


class CorgiMatcher(Matcher):
    """Bounded-cost match backend over a compiled Rete network.

    Drop-in for :class:`~repro.rete.matcher.SequentialMatcher`: same
    ``process_changes`` contract, same strict-delete semantics, same
    ``stats`` instrumentation.  ``tokens_emitted`` counts *derived
    partial combinations* (the engine's unit of join work); its growth
    staying polynomial on cross-product programs is the whole point,
    and what the perf scenario measures.
    """

    def __init__(self, network: ReteNetwork) -> None:
        self.network = network
        _flight.note_engine("corgi", 1)
        self.plans, self._routing = compile_plans(network)
        self._rules: Dict[str, _RuleState] = {
            p.name: _RuleState(p) for p in self.plans
        }
        self.stats = MatchStats()
        #: Unlink/relink bookkeeping (also mirrored onto the obs bus).
        self.counters = {
            "unlinks": 0,
            "relinks": 0,
            "lazy_skips": 0,   # adds absorbed in O(1) by an unlinked rule
            "gate_prunes": 0,  # enumeration branches cut by a hoisted gate
        }
        self._examined = 0  # bucket entries scanned (probe for obs)

    # -- public contract -------------------------------------------------

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Process a batch of changes in order (one RHS's output)."""
        _flight.record("corgi", "batch", {"changes": len(changes)})
        deltas: List[CSDelta] = []
        for change in changes:
            deltas.extend(self.process_change(change))
        return deltas

    def process_change(self, change: WMEChange) -> List[CSDelta]:
        """Filter one WM change through the plans; returns CS deltas."""
        stats = self.stats
        obs_on = _obs.ENABLED
        if obs_on:
            change_t0 = _obs.now()

        hits, _n_tests = alpha_pass(self.network, stats, change.wme)

        # Group the touched slots by production, preserving dispatch
        # order (deterministic for a given compiled network).
        per_rule: Dict[str, Tuple[_RuleState, List[SlotPlan]]] = {}
        for terminal in hits:
            for plan, slot in self._routing.get(terminal.alpha_id, ()):
                entry = per_rule.get(plan.name)
                if entry is None:
                    per_rule[plan.name] = (self._rules[plan.name], [slot])
                else:
                    entry[1].append(slot)

        if change.sign == ADD:
            deltas = self._apply_add(change.wme, per_rule, obs_on)
        else:
            deltas = self._apply_delete(change.wme, per_rule, obs_on)

        stats.node_activations += len(deltas)
        stats.term_activations += len(deltas)
        stats.cs_changes += len(deltas)
        if obs_on:
            _obs.span(
                "match",
                "wm_change",
                change_t0,
                _obs.now(),
                args={"sign": change.sign, "alpha_hits": len(hits)},
            )
        return deltas

    # -- introspection (property tests, serve inspect) -------------------

    def linked(self, rule_name: str) -> bool:
        return self._rules[rule_name].linked

    def slot_sizes(self, rule_name: str) -> List[int]:
        return [m.size for m in self._rules[rule_name].mems]

    def resident_tokens(self) -> int:
        """Total stored entries: alpha memberships + instantiations.

        The corgi space invariant — there are no beta memories, so this
        is bounded by (slots x WM size) + live instantiations, never by
        intermediate cross-product size.
        """
        return sum(
            sum(m.size for m in rs.mems) + len(rs.cs)
            for rs in self._rules.values()
        )

    # -- add path --------------------------------------------------------

    def _apply_add(self, wme, per_rule, obs_on) -> List[CSDelta]:
        stats = self.stats
        deltas: List[CSDelta] = []
        # Phase 1: the WME enters every touched slot memory first, so
        # enumeration and gate checks below see a consistent picture.
        for rs, slots in per_rule.values():
            for slot in slots:
                rs.mems[slot.index].insert(slot.right_key(wme), wme)

        for rs, slots in per_rule.values():
            plan = rs.plan
            t0 = _obs.now() if obs_on else 0
            self._examined = 0
            emitted = 0
            # Negated adds can only kill existing instantiations.
            for slot in slots:
                if slot.positive:
                    continue
                stats.node_activations += 1
                stats.not_activations += 1
                key = slot.right_key(wme)
                dead = [
                    k
                    for k, tok in rs.cs.items()
                    if slot.left_key(tok.wmes) == key
                    and slot.tests(tok.wmes, wme)
                ]
                self._examined += len(rs.cs)
                for k in dead:
                    deltas.append(
                        CSDelta(plan.production, rs.cs.pop(k), DELETE)
                    )
                    emitted += 1

            was_linked = rs.linked
            pos_touched = sorted(
                (s for s in slots if s.positive), key=lambda s: s.index
            )
            if pos_touched and rs.check_linked():
                if not was_linked:
                    self.counters["relinks"] += 1
                    if obs_on:
                        _obs.count("corgi.relink")
                for slot in pos_touched:
                    stats.node_activations += 1
                    for token in self._enumerate(rs, slot, wme):
                        rs.cs[token.key] = token
                        deltas.append(CSDelta(plan.production, token, ADD))
                        emitted += 1
            elif pos_touched:
                stats.node_activations += 1
                self.counters["lazy_skips"] += 1
                if obs_on:
                    _obs.count("corgi.lazy_skip")
            if obs_on:
                _obs.node_hit(
                    slots[0].node_id,
                    slots[0].kind,
                    _obs.now() - t0,
                    self._examined,
                    emitted,
                )
        return deltas

    # -- delete path -----------------------------------------------------

    def _apply_delete(self, wme, per_rule, obs_on) -> List[CSDelta]:
        stats = self.stats
        deltas: List[CSDelta] = []
        tt = wme.timetag
        for rs, slots in per_rule.values():
            for slot in slots:
                if not rs.mems[slot.index].remove(slot.right_key(wme), wme):
                    raise RuntimeError(
                        f"delete of unknown wme {tt} at corgi slot "
                        f"{rs.plan.name}[{slot.index}]"
                    )

        for rs, slots in per_rule.values():
            plan = rs.plan
            t0 = _obs.now() if obs_on else 0
            self._examined = 0
            emitted = 0
            pos_touched = any(s.positive for s in slots)
            neg_touched = any(not s.positive for s in slots)
            if pos_touched:
                stats.node_activations += 1
                # Timetags are unique, so key membership means the WME
                # is part of the instantiation, at whatever slot.
                dead = [k for k in rs.cs if tt in k]
                self._examined += len(rs.cs)
                for k in dead:
                    deltas.append(
                        CSDelta(plan.production, rs.cs.pop(k), DELETE)
                    )
                    emitted += 1
                was_linked = rs.linked
                if not rs.check_linked() and was_linked:
                    self.counters["unlinks"] += 1
                    if obs_on:
                        _obs.count("corgi.unlink")
            if neg_touched:
                stats.node_activations += 1
                stats.not_activations += 1
                # Removing a negated-slot WME can only *unblock*: re-sync
                # against a fresh full derivation (skipped while
                # unlinked, where the derivation is empty by definition).
                if rs.linked:
                    fresh = {
                        t.key: t for t in self._enumerate(rs, None, None)
                    }
                    for k, token in fresh.items():
                        if k not in rs.cs:
                            rs.cs[k] = token
                            deltas.append(
                                CSDelta(plan.production, token, ADD)
                            )
                            emitted += 1
                    for k in [k for k in rs.cs if k not in fresh]:
                        deltas.append(
                            CSDelta(plan.production, rs.cs.pop(k), DELETE)
                        )
                        emitted += 1
            if obs_on:
                _obs.node_hit(
                    slots[0].node_id,
                    slots[0].kind,
                    _obs.now() - t0,
                    self._examined,
                    emitted,
                )
        return deltas

    # -- demand-driven enumeration ---------------------------------------

    def _gate_blocked(self, rs: _RuleState, gate: SlotPlan, prefix) -> bool:
        bucket = rs.mems[gate.index].buckets.get(gate.left_key(prefix))
        if not bucket:
            return False
        self._examined += len(bucket)
        for cand in bucket.values():
            if gate.tests(prefix, cand):
                return True
        return False

    def _enumerate(
        self,
        rs: _RuleState,
        seed_slot: Optional[SlotPlan],
        seed: Optional[WME],
    ) -> List[Token]:
        """Derive instantiations by walking positive slots in CE order.

        With a seed, only combinations using ``seed`` at ``seed_slot``
        are produced (slots before the seed exclude it, slots after
        include it — each combination appears exactly once, at the
        first slot the seed occupies).  Without a seed, the complete
        instantiation set is derived (negated-delete re-sync).
        """
        plan = rs.plan
        pos_slots = plan.pos_slots
        gates_at = plan.gates_at
        seed_d = seed_slot.pos_index if seed_slot is not None else -1
        seed_tt = seed.timetag if seed is not None else -1
        stats = self.stats
        counters = self.counters
        out: List[Token] = []
        prefix: List[WME] = []

        def descend(d: int) -> None:
            ptuple = tuple(prefix)
            for gate in gates_at[d]:
                if self._gate_blocked(rs, gate, ptuple):
                    counters["gate_prunes"] += 1
                    return
            if d == plan.n_pos:
                out.append(Token.of(ptuple))
                return
            slot = pos_slots[d]
            if d == seed_d:
                if slot.index != 0 and not (
                    slot.left_key(ptuple) == slot.right_key(seed)
                    and slot.tests(ptuple, seed)
                ):
                    return
                stats.tokens_emitted += 1
                prefix.append(seed)
                descend(d + 1)
                prefix.pop()
                return
            key = () if slot.index == 0 else slot.left_key(ptuple)
            bucket = rs.mems[slot.index].buckets.get(key)
            if not bucket:
                return
            self._examined += len(bucket)
            for cand_tt, cand in list(bucket.items()):
                if d < seed_d and cand_tt == seed_tt:
                    continue
                if slot.index != 0 and not slot.tests(ptuple, cand):
                    continue
                stats.tokens_emitted += 1
                prefix.append(cand)
                descend(d + 1)
                prefix.pop()

        descend(0)
        return out
