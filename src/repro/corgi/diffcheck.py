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
* **space bound** — corgi's resident tokens never exceed
  ``slots x live WMEs + instantiations`` (there are no beta memories
  to blow up).

Reports are byte-stable per seed and every failure carries a
paste-ready ``python -m repro check corgick --seed N`` replay command.

Seed profiles rotate through three corpora: ``shallow`` (the schedck
default), ``deep`` (4-level chains — the blow-up shape), and ``dense``
(a single value for every attribute: maximal bucket collisions and
cross products).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from .. import check
from ..check import Finding
from ..ops5.wme import WMEChange
from ..schedck import progen
from .engine import CorgiMatcher

#: Named generator corpora; ``rotate`` cycles through them by seed.
PROFILES: Dict[str, progen.ProgenParams] = {
    "shallow": progen.ProgenParams(),
    "deep": progen.ProgenParams(max_pos_ces=4, max_rules=3),
    "dense": progen.ProgenParams(n_values=1, max_pos_ces=3),
}
PROFILE_ROTATION: Tuple[str, ...] = ("shallow", "deep", "dense")


def profile_for(seed: int, profile: str = "rotate") -> str:
    if profile == "rotate":
        return PROFILE_ROTATION[seed % len(PROFILE_ROTATION)]
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected rotate or one of "
            f"{', '.join(sorted(PROFILES))}"
        )
    return profile


def check_invariants(corgi: CorgiMatcher, batch: int, live_wmes: int) -> List[Finding]:
    """The corgi structural invariants, checkable at any quiescence."""
    out: List[Finding] = []
    for plan in corgi.plans:
        sizes = corgi.slot_sizes(plan.name)
        pos_nonempty = all(sizes[s.index] > 0 for s in plan.pos_slots)
        if corgi.linked(plan.name) != pos_nonempty:
            out.append(
                Finding(
                    "unlink_invariant",
                    batch,
                    f"{plan.name}: linked={corgi.linked(plan.name)} but "
                    f"positive slot sizes {sizes}",
                )
            )
        if not pos_nonempty and corgi._rules[plan.name].cs:
            out.append(
                Finding(
                    "ghost_instantiations",
                    batch,
                    f"{plan.name}: unlinked but holds "
                    f"{len(corgi._rules[plan.name].cs)} instantiations",
                )
            )
    n_slots = sum(len(p.slots) for p in corgi.plans)
    n_insts = sum(len(rs.cs) for rs in corgi._rules.values())
    bound = n_slots * live_wmes + n_insts
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
    live = 0

    def invariants(bi, batch, _oracle):
        nonlocal live
        live += sum(change.sign for change in batch)
        return check_invariants(corgi, bi, live)

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
                   help="rotate | shallow | deep | dense")
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
