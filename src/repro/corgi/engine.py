"""The corgi match engine: bounded-cost matching without beta memories.

Where Rete stores every partial join result (beta tokens) and pays for
cross-products eagerly, corgi stores only *alpha* memories — one
hash-bucketed WME set per distinct (alpha terminal, equality-key
attributes) pair, shared by every condition element of every production
that reads it — and re-derives full instantiations on demand, in the
TREAT/CORGI tradition (PAPERS.md).  Four mechanisms bound the cost:

**Shared alpha memories.**  A WM change is stored once per memory it
passes into, not once per reader: paper §2.2 / Fig. 2-2 shares the
constant tests between productions, and the memory behind them is
shared here the same way.

**Left/right unlinking, counted.**  A production is *linked* only while
every positive slot's memory is non-empty.  Each rule keeps the count
of its empty positive slots, moved only when a memory's size crosses
0 <-> 1; each memory keeps the registry of its readers whose rule is
linked.  A WM change visits that registry and nothing else, so an
unlinked rule costs a change *nothing* — it is off the successor list,
not visited and skipped.  This is what keeps the cross-product
stressors polynomial: Rete builds the full N x N intermediate token set
even when the third CE never matches; corgi never enumerates until the
demand (a complete candidate) exists.

**Lazy join evaluation.**  Adds seed enumeration *from the changed
WME*: only combinations containing the new WME are derived, walking
positive slots in CE order through the same hash keys and residual
tests the Rete two-input nodes use, one loop per level.  When
one WME matches several slots of one production, each combination is
generated exactly once — at the *first* slot it occupies (earlier slots
exclude it, later ones include it).  Instantiations are indexed by
timetag, so a delete retracts exactly the ones the WME sits in.

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

Deletes mirror strict Rete semantics: deleting a WME unknown to a
memory raises, exactly like a ``-`` token with no stored ``+`` twin —
and before any memory is touched.

One *activation* (``stats.node_activations``, one ``node_hit`` on the
bus) is one visit to a linked reader, one wholesale retraction at an
unlink, or one conflict-set delta (kind ``term``); a reader that is not
visited is neither (``counters["lazy_skips"]`` counts those by
arithmetic).
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
from .plan import MemPlan, RulePlan, SlotPlan, compile_plans, memory_layout


class _RuleState:
    """Mutable per-production state: link count + derived matches."""

    __slots__ = ("plan", "cs", "by_tt", "n_empty")

    def __init__(self, plan: RulePlan) -> None:
        self.plan = plan
        #: Current instantiations, key -> token — the engine's
        #: only derived state, and it is exactly the conflict set's
        #: view of this production (no intermediate tokens exist).
        self.cs: Dict[Tuple[int, ...], Token] = {}
        #: timetag -> keys of the instantiations that WME sits in.
        self.by_tt: Dict[int, Dict[Tuple[int, ...], None]] = {}
        #: Positive slots whose memory is empty; linked iff 0.
        self.n_empty = len(plan.pos_slots)


class _Memory:
    """One shared alpha memory: eq-join key -> {timetag: WME} (a single
    ``None`` bucket when its readers join on no equality test)."""

    __slots__ = ("plan", "right_key", "readers", "buckets", "size", "linked")

    def __init__(self, plan: MemPlan) -> None:
        self.plan = plan
        self.right_key = plan.right_key
        self.readers = plan.readers
        self.buckets: Dict[Optional[tuple], Dict[int, WME]] = {}
        self.size = 0
        #: The readers whose rule is linked — all a change ever visits.
        self.linked: Dict[SlotPlan, _RuleState] = {}


class CorgiMatcher(Matcher):
    """Bounded-cost match backend over a compiled Rete network.

    Drop-in for :class:`~repro.rete.matcher.SequentialMatcher`: same
    ``process_changes`` contract, same strict-delete semantics, same
    ``stats`` instrumentation.  ``tokens_emitted`` counts *derived
    partial combinations* (the engine's unit of join work); its growth
    staying polynomial on cross-product programs is the whole point,
    and what ``tests/corgi/test_blowup.py`` pins.
    """

    def __init__(self, network: ReteNetwork) -> None:
        self.network = network
        _flight.note_engine("corgi", 1)
        self.plans = compile_plans(network)
        self._states = [_RuleState(p) for p in self.plans]
        self._rules: Dict[str, _RuleState] = {
            rs.plan.name: rs for rs in self._states
        }
        self._mems = [_Memory(m) for m in memory_layout(network)]
        self._mems_of: Dict[int, List[_Memory]] = {}
        for mem in self._mems:
            self._mems_of.setdefault(mem.plan.alpha.alpha_id, []).append(mem)
        self.stats = MatchStats()
        #: Unlink/relink bookkeeping (also mirrored onto the obs bus).
        self.counters = {
            "unlinks": 0,
            "relinks": 0,
            "lazy_skips": 0,   # reader slots an add did not visit: rule unlinked
            "gate_prunes": 0,  # enumeration branches cut by a hoisted gate
        }
        self._examined = 0  # entries scanned by the current visit (obs probe)

    # -- public contract -------------------------------------------------

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Process a batch of changes in order (one RHS's output)."""
        _flight.record("corgi", "batch", {"changes": len(changes)})
        deltas: List[CSDelta] = []
        for change in changes:
            deltas.extend(self.process_change(change))
        return deltas

    def process_change(self, change: WMEChange) -> List[CSDelta]:
        """Store one WM change in the memories it passes into and visit
        their linked readers; returns CS deltas."""
        stats = self.stats
        obs_on = _obs.ENABLED
        if obs_on:
            change_t0 = _obs.now()

        hits, _n_tests = alpha_pass(self.network, stats, change.wme)
        mems_of = self._mems_of
        touched = [mem for terminal in hits for mem in mems_of[terminal.alpha_id]]
        deltas: List[CSDelta] = []
        if change.sign == ADD:
            visits = self._apply_add(change.wme, touched, deltas, obs_on)
        else:
            visits = self._apply_delete(change.wme, touched, deltas, obs_on)

        stats.node_activations += visits + len(deltas)
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
        return self._rules[rule_name].n_empty == 0

    def slot_sizes(self, rule_name: str) -> List[int]:
        mems = self._mems
        return [mems[s.mem].size for s in self._rules[rule_name].plan.slots]

    def resident_tokens(self) -> int:
        """Total stored entries as the rules see them: every slot's
        alpha memberships (a shared memory counts once per reader) +
        instantiations.

        The corgi space invariant — there are no beta memories, so this
        is bounded by (slots x WM size) + live instantiations, never by
        intermediate cross-product size.
        """
        return sum(m.size * len(m.readers) for m in self._mems) + sum(
            len(rs.cs) for rs in self._states
        )

    # -- link transitions ------------------------------------------------

    def _link(self, rs: _RuleState, obs_on: bool) -> None:
        mems = self._mems
        for slot in rs.plan.slots:
            mems[slot.mem].linked[slot] = rs
        self.counters["relinks"] += 1
        if obs_on:
            _obs.count("corgi.relink")

    def _unlink(self, rs: _RuleState, slot: SlotPlan, deltas, obs_on) -> None:
        """``slot``'s memory just emptied: the rule leaves every
        registry and everything it had derived goes with it."""
        mems = self._mems
        plan = rs.plan
        for s in plan.slots:
            del mems[s.mem].linked[s]
        self.counters["unlinks"] += 1
        self.stats.node_activations += 1
        for token in rs.cs.values():
            deltas.append((plan.production, token, DELETE))
        if obs_on:
            _obs.count("corgi.unlink")
            self._hit(slot, plan, 0, len(rs.cs), len(rs.cs))
        rs.cs.clear()
        rs.by_tt.clear()

    # -- instantiation index ---------------------------------------------

    @staticmethod
    def _keep(rs: _RuleState, token: Token) -> None:
        """Record one derived instantiation, under every timetag in it."""
        key = token[1]
        rs.cs[key] = token
        by_tt = rs.by_tt
        for tt in key:
            peers = by_tt.get(tt)
            if peers is None:
                by_tt[tt] = {key: None}
            else:
                peers[key] = None

    @staticmethod
    def _drop(rs: _RuleState, key: Tuple[int, ...]) -> Token:
        """Forget one instantiation: out of ``cs`` and of the index
        entry of every timetag in it."""
        by_tt = rs.by_tt
        for tt in key:
            peers = by_tt.get(tt)
            if peers is not None:  # a WME may sit in two slots
                peers.pop(key, None)
                if not peers:
                    del by_tt[tt]
        return rs.cs.pop(key)

    @staticmethod
    def _hit(slot: SlotPlan, plan: RulePlan, dur_ns, examined, emitted) -> None:
        _obs.node_hit(slot.node_id, slot.kind, dur_ns, examined, emitted)
        for _ in range(emitted):
            _obs.node_hit(plan.terminal_id, "term", 0, 0, 0)

    # -- add path --------------------------------------------------------

    def _apply_add(self, wme, touched, deltas, obs_on) -> int:
        states = self._states
        tt = wme.timetag
        # Phase 1: the WME enters every memory it passes into first, so
        # enumeration and gate checks below see a consistent picture.
        for mem in touched:
            key = mem.right_key(wme) if mem.right_key is not None else None
            bucket = mem.buckets.get(key)
            if bucket is None:
                mem.buckets[key] = {tt: wme}
            else:
                bucket[tt] = wme
            mem.size += 1
            if mem.size == 1:
                for slot in mem.readers:
                    if slot.positive:
                        rs = states[slot.rule]
                        rs.n_empty -= 1
                        if not rs.n_empty:
                            self._link(rs, obs_on)

        visits = nots = skips = 0
        for mem in touched:
            skipped = len(mem.readers) - len(mem.linked)
            if skipped:
                skips += skipped
                if obs_on:
                    _obs.count("corgi.lazy_skip", skipped)
            for slot, rs in mem.linked.items():
                plan = rs.plan
                visits += 1
                if obs_on:
                    self._examined = 0
                    t0 = _obs.now()
                    before = len(deltas)
                if slot.positive:
                    for token in self._enumerate(rs, slot, wme):
                        self._keep(rs, token)
                        deltas.append((plan.production, token, ADD))
                else:
                    # A negated add can only kill existing instantiations.
                    nots += 1
                    if rs.cs:
                        left_key, tests = slot.left_key, slot.tests
                        key = slot.right_key(wme) if left_key is not None else None
                        if obs_on:
                            self._examined += len(rs.cs)
                        dead = [
                            k
                            for k, tok in rs.cs.items()
                            if (left_key is None or left_key(tok[0]) == key)
                            and (tests is None or tests(tok[0], wme))
                        ]
                        for k in dead:
                            deltas.append((plan.production, self._drop(rs, k), DELETE))
                if obs_on:
                    self._hit(slot, plan, _obs.now() - t0, self._examined,
                              len(deltas) - before)
        self.counters["lazy_skips"] += skips
        self.stats.not_activations += nots
        return visits

    # -- delete path -----------------------------------------------------

    def _apply_delete(self, wme, touched, deltas, obs_on) -> int:
        states = self._states
        tt = wme.timetag
        found = []
        for mem in touched:
            key = mem.right_key(wme) if mem.right_key is not None else None
            bucket = mem.buckets.get(key)
            if bucket is None or tt not in bucket:
                raise RuntimeError(
                    f"delete of unknown wme {tt} at corgi memory "
                    f"{mem.plan.index} (alpha {mem.plan.alpha.alpha_id})"
                )
            found.append((mem, key, bucket))
        for mem, key, bucket in found:
            del bucket[tt]
            if not bucket:
                del mem.buckets[key]
            mem.size -= 1
            if not mem.size:
                for slot in mem.readers:
                    if slot.positive:
                        rs = states[slot.rule]
                        rs.n_empty += 1
                        if rs.n_empty == 1:
                            self._unlink(rs, slot, deltas, obs_on)

        visits = nots = 0
        for mem in touched:
            for slot, rs in mem.linked.items():
                plan = rs.plan
                visits += 1
                if obs_on:
                    self._examined = 0
                    t0 = _obs.now()
                    before = len(deltas)
                if slot.positive:
                    # Exactly the instantiations the WME sits in, at
                    # whatever slot (timetags are unique).
                    dead = rs.by_tt.get(tt)
                    if dead:
                        if obs_on:
                            self._examined += len(dead)
                        for k in list(dead):
                            deltas.append((plan.production, self._drop(rs, k), DELETE))
                else:
                    nots += 1
                    # Removing a negated-slot WME can only *unblock*: a
                    # fresh full derivation holds what it was blocking.
                    # (Should the WME sit in a positive slot of this
                    # rule too, that slot's visit does the retracting.)
                    for token in self._enumerate(rs, None, None):
                        if token[1] not in rs.cs:
                            self._keep(rs, token)
                            deltas.append((plan.production, token, ADD))
                if obs_on:
                    self._hit(slot, plan, _obs.now() - t0, self._examined,
                              len(deltas) - before)
        self.stats.not_activations += nots
        return visits

    # -- demand-driven enumeration ---------------------------------------

    def _enumerate(self, rs: _RuleState, seed_slot: Optional[SlotPlan],
                   seed: Optional[WME]) -> List[Token]:
        """Derive instantiations by walking positive slots in CE order,
        one loop per level over a list of partials ``(wmes, tags)``.

        With a seed, only combinations using ``seed`` at ``seed_slot``
        are produced (slots before the seed exclude it, slots after
        include it — each combination appears exactly once, at the
        first slot the seed occupies).  Without a seed, the complete
        instantiation set is derived (negated-delete re-sync).  A level
        extends its partials in order, so output order and counts are
        those of a depth-first walk.
        """
        plan = rs.plan
        mems = self._mems
        gates_at = plan.gates_at
        for gate in gates_at[0]:
            # needed == 0: no join test at all, so any WME blocks.
            if mems[gate.mem].size:
                self._examined += 1
                self.counters["gate_prunes"] += 1
                return []
        seed_d = seed_slot.pos_index if seed_slot is not None else -1
        emitted = examined = prunes = 0
        partials: List[Token] = [((), ())]
        for d, slot in enumerate(plan.pos_slots):
            left_key = slot.left_key
            tests = slot.tests
            at_seed = d == seed_d
            seed_key = slot.right_key(seed) if at_seed and left_key else None
            skip = seed if d < seed_d else None  # earlier slots exclude the seed
            cand_tests = None if at_seed else tests
            buckets = mems[slot.mem].buckets
            gates = gates_at[d + 1]
            extended: List[Token] = []
            for prefix, tags in partials:
                if at_seed:
                    if left_key is not None and left_key(prefix) != seed_key:
                        continue
                    if tests is not None and not tests(prefix, seed):
                        continue
                    cands = (seed,)
                else:
                    bucket = buckets.get(left_key and left_key(prefix))
                    if not bucket:
                        continue
                    examined += len(bucket)
                    cands = bucket.values()
                for cand in cands:
                    if cand is skip:
                        continue
                    if cand_tests is not None and not cand_tests(prefix, cand):
                        continue
                    wmes = prefix + (cand,)
                    for gate in gates:
                        key = gate.left_key
                        blockers = mems[gate.mem].buckets.get(key and key(wmes))
                        if not blockers:
                            continue
                        gate_tests = gate.tests
                        if gate_tests is None:
                            examined += 1
                            break
                        examined += len(blockers)
                        for blocker in blockers.values():
                            if gate_tests(wmes, blocker):
                                break
                        else:
                            continue  # nothing in the bucket blocks
                        break
                    else:
                        extended.append((wmes, tags + (cand.timetag,)))
                        continue
                    prunes += 1  # a gate broke off: the branch is cut
            emitted += len(extended)  # passed its tests, and not pruned
            partials = extended
            if not partials:
                break
        self.stats.tokens_emitted += emitted + prunes
        self.counters["gate_prunes"] += prunes
        self._examined += examined
        return partials
