"""Bounded random OPS5 program + workload generation for fuzzing.

Generates small production systems over a closed vocabulary of classes,
attributes and values — enough to exercise every two-input node shape
the engine has:

* chained positive CEs sharing variables (hash-keyed joins),
* *cross-product* CEs sharing nothing (empty keys: the Tourney §4.2
  phenomenon — every token of the node piles into one hash line),
* negated CEs (NotNode left-count maintenance),

plus working-memory change batches mixing adds, deletes of live WMEs
and modifies (delete + re-add in one batch — the conjugate-pair
trigger).  Everything is a pure function of the supplied RNG, so a
schedule seed reproduces the exact program and workload along with the
interleaving.

The default parameters cap rules at two positive CEs: this is the
*shallow-chain corpus* the differential fuzz sweep runs on.  Deeper
chains are covered by the pinned workloads
(:mod:`repro.schedck.workloads`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..ops5.wme import WMEChange, WorkingMemory


@dataclass(frozen=True)
class ProgenParams:
    """Bounds for the generator; defaults define the shallow corpus."""

    max_rules: int = 4
    max_pos_ces: int = 2
    allow_negation: bool = True
    allow_cross_products: bool = True
    n_classes: int = 3
    n_attrs: int = 2
    n_values: int = 3
    max_batches: int = 4
    max_changes_per_batch: int = 5
    delete_fraction: float = 0.35
    modify_fraction: float = 0.25


def _class(rng: random.Random, p: ProgenParams) -> str:
    return f"c{rng.randrange(p.n_classes)}"


def _ce(
    rng: random.Random,
    p: ProgenParams,
    bound_vars: List[str],
    share: bool,
) -> Tuple[str, List[str]]:
    """One condition element; returns (text, newly bound variables)."""
    tests = []
    new_vars: List[str] = []
    attrs = [f"a{i}" for i in range(p.n_attrs)]
    rng.shuffle(attrs)
    shared = False
    for attr in attrs:
        roll = rng.random()
        if roll < 0.35:
            continue  # attribute unconstrained
        if share and bound_vars and not shared and roll < 0.75:
            # Equality-test a variable bound upstream: a join key term.
            tests.append((attr, f"<{rng.choice(bound_vars)}>"))
            shared = True
        elif roll < 0.6:
            tests.append((attr, str(rng.randrange(p.n_values))))
        else:
            var = f"v{len(bound_vars) + len(new_vars)}"
            new_vars.append(var)
            tests.append((attr, f"<{var}>"))
    body = "".join(f" ^{attr} {val}" for attr, val in tests)
    return f"({_class(rng, p)}{body})", new_vars


def generate_program(rng: random.Random, p: ProgenParams = ProgenParams()) -> str:
    """A random rule set (RHS is a plain halt: the harness drives the
    matchers directly and never fires productions)."""
    rules = []
    n_rules = rng.randint(1, p.max_rules)
    force_cross = p.allow_cross_products and rng.random() < 0.5
    for i in range(n_rules):
        bound: List[str] = []
        ces: List[str] = []
        n_pos = rng.randint(1, p.max_pos_ces)
        cross_rule = force_cross and i == n_rules - 1
        for j in range(n_pos):
            share = j > 0 and not cross_rule
            text, new_vars = _ce(rng, p, bound, share)
            bound.extend(new_vars)
            ces.append(text)
        if p.allow_negation and bound and rng.random() < 0.4:
            text, _ = _ce(rng, p, bound, share=True)
            ces.append("- " + text)
        rules.append(f"(p r{i} {' '.join(ces)} --> (halt))")
    return "\n".join(rules)


def generate_batches(
    rng: random.Random, p: ProgenParams = ProgenParams()
) -> List[List[WMEChange]]:
    """WM change batches over a private WorkingMemory.

    The returned :class:`WMEChange` objects reference shared immutable
    WMEs, so one workload can drive the sequential and parallel
    matchers in lockstep with identical timetags.
    """
    wm = WorkingMemory()
    live = []
    batches: List[List[WMEChange]] = []
    for _ in range(rng.randint(1, p.max_batches)):
        batch: List[WMEChange] = []
        for _ in range(rng.randint(1, p.max_changes_per_batch)):
            roll = rng.random()
            if live and roll < p.delete_fraction:
                victim = live.pop(rng.randrange(len(live)))
                wm.remove(victim)
                batch.append(WMEChange(-1, victim))
                if roll < p.delete_fraction * p.modify_fraction:
                    # A modify: the paper's remove-then-make with a
                    # fresh timetag, both halves in the same batch.
                    updated = wm.add(victim.klass, dict(victim.vals))
                    live.append(updated)
                    batch.append(WMEChange(1, updated))
            else:
                attrs = {
                    f"a{i}": rng.randrange(p.n_values)
                    for i in range(p.n_attrs)
                    if rng.random() < 0.8
                }
                wme = wm.add(_class(rng, p), attrs)
                live.append(wme)
                batch.append(WMEChange(1, wme))
        batches.append(batch)
    return batches


def generate(
    rng: random.Random, p: ProgenParams = ProgenParams()
) -> Tuple[str, List[List[WMEChange]]]:
    """One fuzz case: (program source, WM change batches)."""
    return generate_program(rng, p), generate_batches(rng, p)
