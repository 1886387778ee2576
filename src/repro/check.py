"""The differential proof harness behind ``repro check <battery>``.

The paper's correctness claim (§3.2) is one sentence: a parallel or
lazy match engine may change *how* the conflict set is computed, never
*what* it is.  This module is the only place that knows what proving
that on one case means; a battery (``schedck`` or ``corgick``)
supplies a subject engine, a workload source and its own structural
invariants, and is listed in :data:`BATTERIES`.

Two proof shapes:

*lockstep* (:func:`lockstep`)
    The subject and the sequential oracle are driven through the same
    WME batches; after every batch the count-folded conflict sets must
    be equal (:func:`check_conflict_set`, multiplicity-exact) and the
    battery's invariants must hold.  The run stops at the first failing
    batch.  Workloads come from :func:`workload` — generated from the
    case seed, or pinned.

*whole program* (:func:`run_program`)
    A bundled program (:data:`PROGRAMS`) runs to halt on the subject
    engine; its firing trace, final working memory, ``write`` output,
    halt flag and cycle count must equal the sequential run's.  The
    cross-engine conformance suite asserts on those fields.

Either way the outcome is a :class:`Report`, many of them a
:class:`Sweep`.  ``format()`` is byte-stable for a given case, and the
``replay:`` line a failing case prints is generated from the arguments
the case actually ran with, so pasting it re-runs that case.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .cli import Registry, Verb
from .ops5.parser import parse_program
from .ops5.wme import WMEChange
from .programs import blocks, crossfire, monkey, negchain, rubik, tourney, weaver
from .rete.matcher import SequentialMatcher
from .rete.network import ReteNetwork


@dataclass(frozen=True)
class Finding:
    """One divergence from the oracle or broken invariant.  ``batch`` is
    the quiescence point it was seen at; whole-program findings have
    none."""

    kind: str
    batch: Optional[int]
    detail: str

    def format(self) -> str:
        where = "" if self.batch is None else f" batch {self.batch}:"
        return f"[{self.kind}]{where} {self.detail}"


# ---------------------------------------------------------------------------
# Reports


@dataclass
class Report:
    """Outcome of one case; :meth:`format` is byte-stable per case."""

    battery: str
    #: ``key=value`` pairs identifying the case, in header order.
    label: List[Tuple[str, object]]
    #: The ``repro check`` flags that reproduce exactly this case (a
    #: ``None`` value: flag left at its default), or ``None`` when the
    #: case has no command-line spelling (a program pinned from Python).
    args: Optional[Dict[str, object]]
    findings: List[Finding] = field(default_factory=list)
    #: Battery-specific header lines (workload size, schedule length).
    body: List[str] = field(default_factory=list)
    stats: List[Tuple[str, object]] = field(default_factory=list)
    #: The subject ran out of its step budget before quiescence — a
    #: liveness failure even when every invariant still holds.
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings and not self.truncated

    def describe(self) -> str:
        return " ".join(f"{key}={value}" for key, value in self.label)

    def failure(self) -> str:
        """Why this case failed, in one line."""
        return self.findings[0].format() if self.findings else "truncated"

    def replay(self) -> List[str]:
        """The command that re-runs this case (no line when it has no
        command-line spelling)."""
        if self.args is None:
            return []
        flags = "".join(
            f" --{name.replace('_', '-')} {value}"
            for name, value in self.args.items()
            if value is not None
        )
        return [f"replay: python -m repro check {self.battery}{flags}"]

    def format(self) -> str:
        lines = [f"{self.battery} {self.describe()}", *self.body]
        lines.extend(f"  {key} = {value}" for key, value in self.stats)
        lines.append(f"findings: {len(self.findings)}")
        lines.extend("  " + finding.format() for finding in self.findings)
        if not self.ok:
            lines.extend(self.replay())
        return "\n".join(lines)


#: Failing cases a sweep prints in full before summarising the rest.
MAX_LISTED = 20


@dataclass
class Sweep:
    """Aggregate of many cases: one summary line, then every failing
    case with its replay command."""

    battery: str
    title: str                     # "sweep", "battery"
    noun: str                      # what one case is: "schedules", "seeds"
    reports: List[Report] = field(default_factory=list)
    #: Extra ``(count, label)`` pairs for the summary line.
    also: Sequence[Tuple[int, str]] = ()

    @property
    def failures(self) -> List[Report]:
        return [report for report in self.reports if not report.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        failures = self.failures
        counts = [f"{len(self.reports)} {self.noun}", f"{len(failures)} failing"]
        counts.extend(f"{count} {label}" for count, label in self.also)
        lines = [f"{self.battery} {self.title}: " + ", ".join(counts)]
        for report in failures[:MAX_LISTED]:
            lines.append(f"  FAIL {report.describe()} — {report.failure()}")
            lines.extend("    " + line for line in report.replay())
        if len(failures) > MAX_LISTED:
            lines.append(f"  ... and {len(failures) - MAX_LISTED} more")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Lockstep proof: subject vs the sequential oracle, batch by batch


def fold_cs(cs: Counter, deltas) -> None:
    """Fold signed conflict-set deltas into a net multiset (engines may
    emit them in any order)."""
    for production, token, sign in deltas:
        cs[(production.name, token[1])] += sign


def describe_diff(extra: Counter, missing: Counter, limit: int = 4) -> str:
    parts = []
    if extra:
        sample = ", ".join(repr(k) for k in sorted(extra)[:limit])
        parts.append(f"{sum(extra.values())} extra (e.g. {sample})")
    if missing:
        sample = ", ".join(repr(k) for k in sorted(missing)[:limit])
        parts.append(f"{sum(missing.values())} missing (e.g. {sample})")
    return "; ".join(parts)


def check_conflict_set(batch: int, subject_cs: Counter, oracle_cs: Counter) -> List[Finding]:
    """The net conflict sets must be equal as multisets: same
    instantiations, same (non-zero) multiplicities — a doubled ``+`` or
    a spurious ``-`` is a finding even when the instantiation *sets*
    agree."""
    got = {k for k, n in subject_cs.items() if n != 0}
    want = {k for k, n in oracle_cs.items() if n != 0}
    if got != want:
        detail = describe_diff(
            Counter({k: 1 for k in got - want}),
            Counter({k: 1 for k in want - got}),
        )
        return [Finding("conflict_set", batch, detail)]
    bad_counts = sorted(k for k in got if subject_cs[k] != oracle_cs[k])
    if bad_counts:
        return [
            Finding(
                "conflict_set",
                batch,
                f"instantiation multiplicities differ: {bad_counts[:4]!r}",
            )
        ]
    return []


@dataclass
class Workload:
    """A parsed program plus the WME batches to drive through it."""

    source: str
    batches: List[List[WMEChange]]

    def __post_init__(self) -> None:
        self.ast = parse_program(self.source)

    def compile(self) -> ReteNetwork:
        """A fresh network — oracle and subject never share one."""
        return ReteNetwork.compile(self.ast)

    def describe(self) -> str:
        return (
            f"program: {len(self.ast.productions)} rules, "
            f"{sum(len(b) for b in self.batches)} WM changes "
            f"in {len(self.batches)} batches"
        )


def workload(
    seed: int,
    params,
    program: Optional[str] = None,
    batches: Optional[List[List[WMEChange]]] = None,
) -> Workload:
    """The case's workload: generated from ``random.Random(seed)`` under
    the :class:`~repro.schedck.progen.ProgenParams` bounds, or pinned."""
    # Imported here: the schedck package imports this module.
    from .schedck import progen

    if program is None:
        program, generated = progen.generate(random.Random(seed), params)
        if batches is None:
            batches = generated
    elif batches is None:
        raise ValueError("a pinned program needs pinned batches")
    return Workload(program, batches)


#: ``invariants(batch_index, batch, oracle)`` — the battery's own checks
#: at one quiescence point; ``oracle`` has just processed ``batch``.
Invariants = Callable[[int, List[WMEChange], SequentialMatcher], List[Finding]]


def lockstep(
    load: Workload, subject, invariants: Invariants
) -> Tuple[List[Finding], SequentialMatcher]:
    """Drive ``subject`` and a fresh sequential oracle through the same
    batches; returns the findings of the first failing batch (empty when
    the subject agrees throughout) and the oracle, for its stats.

    Engine misbehaviour never escapes: a ``RuntimeError`` out of the
    subject becomes an ``engine_error`` finding.
    """
    oracle = SequentialMatcher(load.compile())
    oracle_cs: Counter = Counter()
    subject_cs: Counter = Counter()
    for bi, batch in enumerate(load.batches):
        fold_cs(oracle_cs, oracle.process_changes(batch))
        try:
            fold_cs(subject_cs, subject.process_changes(batch))
        except RuntimeError as exc:
            cause = exc.__cause__
            detail = str(exc) + (f": {cause!r}" if cause else "")
            return [Finding("engine_error", bi, detail)], oracle
        findings = check_conflict_set(bi, subject_cs, oracle_cs)
        findings.extend(invariants(bi, batch, oracle))
        if findings:
            return findings, oracle
    return [], oracle


# ---------------------------------------------------------------------------
# Whole-program proof: run to halt, compare with the sequential run

#: Program name -> OPS5 source factory: the eight conformance workloads
#: — every beta node kind, both recursion styles, the cube-model
#: generator at two scrambles ("cube" is a different program text and
#: solution than "rubik"), and two adversarial fixtures (a cross-product
#: stressor and a deep-chain negation program).  Sizes keep the whole
#: engine matrix inside tier-1 time.
PROGRAMS: Dict[str, Callable[[], str]] = {
    "blocks": lambda: blocks.source(),
    "monkey": lambda: monkey.source(),
    "tourney": lambda: tourney.source(n_teams=6, n_rounds=7),
    "weaver": lambda: weaver.source(grid=4, n_nets=1),
    "rubik": lambda: rubik.source(n_moves=4, seed=1988),
    "cube": lambda: rubik.source(n_moves=3, seed=7),
    "crossfire": lambda: crossfire.source(n_items=7),
    "negchain": lambda: negchain.source(n_chains=5),
}

MAX_CYCLES = 5000

def render_trace(result) -> str:
    """One canonical text rendering of a complete firing trace."""
    return "\n".join(
        f"{f.cycle} {f.production} {','.join(map(str, f.timetags))}"
        for f in result.firings
    )


def wm_snapshot(interp) -> tuple:
    """Order-independent view of final working memory (timetags are
    creation-order dependent and *included*: engines must agree on
    them too, or RHS ``remove``/``modify`` addressing would differ)."""
    return tuple(sorted(
        (wme.klass, wme.timetag, wme.attrs) for wme in interp.wm
    ))


def run_program(source: str, engine: str, engine_opts: dict) -> dict:
    """Run ``source`` to halt on one engine; returns the fields a run
    must share with the sequential reference: ``trace``, ``wm``,
    ``output``, ``halted`` and ``cycles``."""
    from .ops5.interpreter import Interpreter

    interp = Interpreter(parse_program(source), engine=engine, engine_opts=engine_opts)
    try:
        result = interp.run(max_cycles=MAX_CYCLES)
        return {
            "trace": render_trace(result),
            "wm": wm_snapshot(interp),
            "output": tuple(result.output),
            "halted": result.halted,
            "cycles": result.cycles,
        }
    finally:
        interp.close()


# ---------------------------------------------------------------------------
# The registry behind ``repro check``


def battery(
    name: str,
    help: str,
    add_arguments: Callable[[argparse.ArgumentParser], None],
    run: Callable[[argparse.Namespace], Union[Report, Sweep]],
) -> Verb:
    """Register a battery as a verb: ``run`` maps parsed flags to the
    outcome (a bad flag value raises ``ValueError``); the verb prints it
    and exits 0 iff the proof held."""

    def verb_run(args: argparse.Namespace) -> int:
        result = run(args)
        print(result.format())
        return 0 if result.ok else 1

    return Verb(name, help, add_arguments, verb_run)


#: Battery name -> (module whose ``VERBS`` registers it, summary).
#: Modules are imported on first use so the other verbs (``repro serve``
#: start-up above all) do not pay for the proof harnesses.
BATTERIES: Registry = {
    "schedck": ("repro.schedck.runner",
                "deterministic schedule exploration of the threaded engine"),
    "corgick": ("repro.corgi.diffcheck",
                "differential fuzzing of the corgi engine"),
}

VERBS = {"check": BATTERIES}
