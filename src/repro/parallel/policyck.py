"""policyck: the differential policy-conformance battery.

The proof obligation for :mod:`repro.parallel.policy` is that a policy
may change *where* match work runs, never *what* the recognize-act
cycle does.  Each case is a :mod:`repro.check` whole-program run: one
bundled conformance program on one parallel engine under one
dispatch/placement policy, required to match the sequential reference
in its complete firing trace (cycle, production, timetags), final
working memory, ``write`` output, halt flag, and cycle count.

Threaded cases run one task queue per worker unless an explicit
``n_queues`` is given; mp cases exercise the placement half of the same
policy object (the shard owners table).

Reports are byte-stable (racy telemetry like steal counts is never
printed), and every FAIL line carries a paste-ready
``python -m repro check policyck`` replay command.
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional, Sequence

from .. import check
from ..check import PROGRAMS, Finding
from ..engines import POOL_ENGINES, check_engine_opts, mp_supported
from .policy import POLICY_NAMES


def run_case(
    program: str,
    engine: str,
    policy: str,
    reference: dict,
    n_workers: int = 2,
    n_queues: Optional[int] = None,
) -> check.Report:
    """One differential case; divergence comes back as findings."""
    check_engine_opts(engine, policy=policy)
    opts = {"n_workers": n_workers, "policy": policy}
    label = [("policy", policy), ("engine", engine)]
    if engine == "threaded":
        opts["n_queues"] = n_queues if n_queues is not None else n_workers
        label.append(("queues", opts["n_queues"]))
    label.append(("program", program))
    report = check.Report(
        battery="policyck",
        label=label,
        args={
            "policies": policy, "engines": engine, "programs": program,
            "workers": n_workers, "queues": n_queues,
        },
    )
    try:
        got = check.run_program(PROGRAMS[program](), engine, opts)
    except Exception as exc:  # noqa: BLE001 - reported, battery continues
        report.findings.append(Finding("engine_error", None, repr(exc)))
        return report
    report.stats.append(("cycles", got["cycles"]))
    report.findings.extend(check.diff_runs(got, reference))
    return report


def run_battery(
    programs: Optional[Sequence[str]] = None,
    engines: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    n_workers: int = 2,
    n_queues: Optional[int] = None,
) -> check.Sweep:
    """The full differential matrix: policies x engines x programs.

    ``engines`` defaults to every policy-capable engine the platform
    supports (mp needs fork; an unsupported engine becomes a SKIP
    entry, not an error).  The sequential reference is computed once
    per program and shared across the matrix.
    """
    program_names = list(programs) if programs else sorted(PROGRAMS)
    policy_names = list(policies) if policies else list(POLICY_NAMES)
    engine_names = list(engines) if engines else list(POOL_ENGINES)
    skipped = []
    if not engines and not mp_supported():
        engine_names.remove("mp")
        skipped.append("engine=mp (needs the fork start method)")
    # Bad names fail before anything runs.
    for name in program_names:
        if name not in PROGRAMS:
            raise ValueError(
                f"unknown program {name!r}; expected one of "
                f"{', '.join(sorted(PROGRAMS))}"
            )
    for policy in policy_names:
        for engine in engine_names:
            check_engine_opts(engine, policy=policy)

    references: Dict[str, dict] = {
        program: check.run_program(PROGRAMS[program](), "sequential", {})
        for program in program_names
    }
    reports = [
        run_case(
            program, engine, policy, references[program],
            n_workers=n_workers, n_queues=n_queues,
        )
        for policy in policy_names
        for engine in engine_names
        for program in program_names
    ]
    return check.Sweep(
        "policyck", "battery", "cases", reports, skipped,
        also=[(len(skipped), "skipped")],
    )


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policies", nargs="*", metavar="POLICY",
                   help="policies to check (default: all registered)")
    p.add_argument("--engines", nargs="*", metavar="ENGINE",
                   help="threaded and/or mp (default: all supported)")
    p.add_argument("--programs", nargs="*", metavar="NAME",
                   help="conformance programs (default: all eight)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queues", type=int, default=None,
                   help="threaded queue count (default: one per worker)")


def _run(args: argparse.Namespace):
    return run_battery(
        programs=args.programs, engines=args.engines, policies=args.policies,
        n_workers=args.workers, n_queues=args.queues,
    )


VERBS = {"policyck": check.battery(
    "policyck",
    "differential policy battery: every dispatch/placement policy must "
    "match sequential byte for byte",
    _add_arguments, _run,
)}
