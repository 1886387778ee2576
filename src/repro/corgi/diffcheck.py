"""corgick: differential fuzzing of corgi vs the sequential Rete oracle.

Corgi is sequential, so there are no interleavings to explore; what
needs fuzzing is the *match algebra*: demand-driven enumeration,
seeded dedup, hoisted negation gates and unlink/relink transitions
against programs the author never wrote.  :func:`run_seed` derives a
random program + WM workload from one seed and drives
:class:`~repro.corgi.engine.CorgiMatcher` through a
:mod:`repro.check` lockstep run — conflict-set equality with the
oracle after every batch (the state firing traces are computed from,
so equality here *is* trace equality for any downstream run) — adding
the corgi structural invariants:

* **unlink invariant** — every production is linked iff all its
  positive slot memories are non-empty, and unlinked productions hold
  no instantiations;
* **counted unlinking** — each rule's empty-slot count equals a recount
  from its slot sizes, and a memory's linked-reader registry is exactly
  its readers whose rule is linked;
* **shared memories** — every memory holds exactly the live WMEs that
  pass its alpha terminal, however many slots read it;
* **timetag index** — the per-rule index and the instantiation set
  describe the same instantiations;
* **space bound** — corgi's resident tokens never exceed
  ``slots x live WMEs + instantiations`` (there are no beta memories
  to blow up).

Reports are byte-stable per seed and every failure carries a
paste-ready ``python -m repro check corgick --seed N`` replay command.

Seed profiles rotate through four corpora: ``shallow`` (the schedck
default), ``deep`` (4-level chains — the blow-up shape), ``dense``
(a single value for every attribute: maximal bucket collisions and
cross products), and ``wide`` (a dozen rules over two classes: many
readers per memory, in mixed link states).
"""

from __future__ import annotations

import argparse
from typing import Collection, Dict, List, Optional, Tuple, Union

from .. import check
from ..check import Finding
from ..ops5.wme import WME, WMEChange
from ..schedck import progen
from .engine import CorgiMatcher

#: Named generator corpora; ``rotate`` cycles through them by seed.
PROFILES: Dict[str, progen.ProgenParams] = {
    "shallow": progen.ProgenParams(),
    "deep": progen.ProgenParams(max_pos_ces=4, max_rules=3),
    "dense": progen.ProgenParams(n_values=1, max_pos_ces=3),
    "wide": progen.ProgenParams(max_rules=12, n_classes=2),
}
PROFILE_ROTATION: Tuple[str, ...] = ("shallow", "deep", "dense", "wide")


def profile_for(seed: int, profile: str = "rotate") -> str:
    if profile == "rotate":
        return PROFILE_ROTATION[seed % len(PROFILE_ROTATION)]
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected rotate or one of "
            f"{', '.join(sorted(PROFILES))}"
        )
    return profile


def check_invariants(
    corgi: CorgiMatcher, batch: int, live_wmes: Union[int, Collection[WME]]
) -> List[Finding]:
    """The corgi structural invariants, checkable at any quiescence.
    ``live_wmes`` is the live WMEs, or just their count (the memory
    contents are then not checked)."""
    out: List[Finding] = []
    for plan in corgi.plans:
        rs = corgi._rules[plan.name]
        sizes = corgi.slot_sizes(plan.name)
        n_empty = sum(1 for s in plan.pos_slots if sizes[s.index] == 0)
        if corgi.linked(plan.name) != (n_empty == 0):
            out.append(
                Finding(
                    "unlink_invariant",
                    batch,
                    f"{plan.name}: linked={corgi.linked(plan.name)} but "
                    f"positive slot sizes {sizes}",
                )
            )
        if rs.n_empty != n_empty:
            out.append(
                Finding(
                    "empty_count",
                    batch,
                    f"{plan.name}: counts {rs.n_empty} empty positive "
                    f"slots, slot sizes {sizes} say {n_empty}",
                )
            )
        if n_empty and rs.cs:
            out.append(
                Finding(
                    "ghost_instantiations",
                    batch,
                    f"{plan.name}: unlinked but holds "
                    f"{len(rs.cs)} instantiations",
                )
            )
        index: Dict[int, set] = {}
        for key in rs.cs:
            for tt in key:
                index.setdefault(tt, set()).add(key)
        if {tt: set(keys) for tt, keys in rs.by_tt.items()} != index:
            out.append(
                Finding(
                    "timetag_index",
                    batch,
                    f"{plan.name}: index covers timetags {sorted(rs.by_tt)}, "
                    f"the {len(rs.cs)} instantiations {sorted(index)}",
                )
            )
    passing: Dict[int, List[int]] = {}  # alpha id -> live timetags passing it
    if not isinstance(live_wmes, int):
        for w in live_wmes:
            for terminal in corgi.network.alpha_dispatch(w)[0]:
                passing.setdefault(terminal.alpha_id, []).append(w.timetag)
    for mem in corgi._mems:
        registry = {s for s in mem.readers if corgi.linked(corgi.plans[s.rule].name)}
        if set(mem.linked) != registry:
            out.append(
                Finding(
                    "linked_registry",
                    batch,
                    f"memory {mem.plan.index}: {len(mem.linked)} registered "
                    f"readers, {len(registry)} readers of linked rules",
                )
            )
        stored = sorted(tt for bucket in mem.buckets.values() for tt in bucket)
        problem = None
        if len(stored) != mem.size:
            problem = f"size {mem.size} but stores {stored}"
        elif not isinstance(live_wmes, int):
            live = sorted(passing.get(mem.plan.alpha.alpha_id, ()))
            if stored != live:
                problem = f"stores {stored}, live WMEs passing its terminal {live}"
        if problem:
            out.append(
                Finding(
                    "memory_size",
                    batch,
                    f"memory {mem.plan.index} (alpha {mem.plan.alpha.alpha_id}, "
                    f"key {mem.plan.key_attrs}): {problem}",
                )
            )
    n_live = live_wmes if isinstance(live_wmes, int) else len(live_wmes)
    n_slots = sum(len(p.slots) for p in corgi.plans)
    n_insts = sum(len(rs.cs) for rs in corgi._rules.values())
    bound = n_slots * n_live + n_insts
    resident = corgi.resident_tokens()
    if resident > bound:
        out.append(
            Finding(
                "space_bound",
                batch,
                f"resident tokens {resident} > slots*wmes+insts bound {bound}",
            )
        )
    return out


def run_seed(
    seed: int,
    profile: str = "rotate",
    program: Optional[str] = None,
    batches: Optional[List[List[WMEChange]]] = None,
) -> check.Report:
    """One seeded differential run; engine divergence comes back as
    report findings, never as an exception."""
    prof = profile_for(seed, profile)
    load = check.workload(seed, PROFILES[prof], program, batches)
    corgi = CorgiMatcher(load.compile())
    live: Dict[int, WME] = {}

    def invariants(bi, batch, _oracle):
        for change in batch:
            if change.sign > 0:
                live[change.wme.timetag] = change.wme
            else:
                del live[change.wme.timetag]
        return check_invariants(corgi, bi, live.values())

    findings, oracle = check.lockstep(load, corgi, invariants)
    return check.Report(
        battery="corgick",
        label=[("seed", seed), ("profile", prof)],
        args={"seed": seed, "profile": prof} if program is None else None,
        findings=findings,
        body=[load.describe()],
        stats=[
            ("tokens_emitted.seq", oracle.stats.tokens_emitted),
            ("tokens_emitted.corgi", corgi.stats.tokens_emitted),
            ("node_activations.seq", oracle.stats.node_activations),
            ("node_activations.corgi", corgi.stats.node_activations),
            ("corgi.unlinks", corgi.counters["unlinks"]),
            ("corgi.relinks", corgi.counters["relinks"]),
            ("corgi.lazy_skips", corgi.counters["lazy_skips"]),
            ("corgi.gate_prunes", corgi.counters["gate_prunes"]),
        ],
    )


def sweep(n_seeds: int, base_seed: int = 0, profile: str = "rotate") -> check.Sweep:
    """Run ``n_seeds`` consecutive seeds through :func:`run_seed`."""
    reports = [run_seed(base_seed + i, profile=profile) for i in range(n_seeds)]
    return check.Sweep("corgick", "sweep", "seeds", reports)


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="case seed (sweep: first seed of the range)")
    p.add_argument("--profile", default="rotate",
                   help="rotate | shallow | deep | dense | wide")
    p.add_argument("--sweep", type=int, default=0, metavar="N",
                   help="fuzz N consecutive seeds")


def _run(args: argparse.Namespace):
    if args.sweep:
        return sweep(args.sweep, base_seed=args.seed, profile=args.profile)
    return run_seed(args.seed, profile=args.profile)


VERBS = {"corgick": check.battery(
    "corgick",
    "differential fuzzing of the corgi engine vs sequential",
    _add_arguments, _run,
)}
