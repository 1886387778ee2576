"""The ``trace`` verb: exactly the run ``repro run`` does
(:func:`repro.engines.interpreter_from_args`: the same program resolver,
the same engine flags, the same interpreter) with the event bus on,
exported as one Chrome trace and printed as every hot-spot table.

The flight ring is ``repro run --flight-dump``'s and the SLO check is
``repro loadgen --meter``'s; this module holds only the traced run.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..cli import Verb
from ..engines import add_program_arguments, interpreter_from_args
from . import events, profile
from .export import chrome_trace


def _add_trace_arguments(p: argparse.ArgumentParser) -> None:
    add_program_arguments(p)
    p.add_argument("--max-events", type=int, default=200_000,
                   help="per-worker span buffer cap")
    p.add_argument("--limit", type=int, default=15, help="rows per hot-spot table")
    p.add_argument("--out", default="trace.json",
                   help="Chrome-trace JSON output path (Perfetto-loadable)")


def _trace(args: argparse.Namespace) -> int:
    """Run one program with the event bus on -- every process of an mp
    run lands in the one snapshot -- then write and print it."""
    if args.max_events < 0:
        raise ValueError(f"--max-events must be >= 0, got {args.max_events}")
    interp = interpreter_from_args(args)
    events.reset()
    events.enable(max_events_per_worker=args.max_events)
    try:
        result = interp.run(max_cycles=args.max_cycles)
        stats = interp.stats
    finally:
        interp.close()
        snap = events.snapshot()
        events.disable()
    prof = profile.build(snap, network=interp.network)
    doc = chrome_trace(snap)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    orphans = doc["otherData"].get("stitch_orphans")
    if orphans:
        print(f"warning: {orphans} stitch orphans", file=sys.stderr)
    print(profile.render_text(prof, limit=args.limit))
    agreement = (
        "equal" if prof["total_activations"] == stats.node_activations else "MISMATCH"
    )
    print()
    print(f"run: cycles={result.cycles} halted={result.halted}")
    print(
        f"profile activations={prof['total_activations']} "
        f"match node_activations={stats.node_activations} ({agreement})"
    )
    print(f"trace: {len(doc['traceEvents'])} events -> {args.out}")
    return 0 if agreement == "equal" else 1


VERBS = {
    "trace": Verb(
        "trace",
        "Run a program under the repro.obs event bus; write a Chrome-trace JSON "
        "file (load it at https://ui.perfetto.dev) and print the hot-spot "
        "profile.  --engine threaded traces the worker timelines; --engine mp "
        "produces one causally stitched trace across the control process and "
        "every match process (docs/OBSERVABILITY.md).  Exit 1 if the profile's "
        "activation count disagrees with the match stats.",
        _add_trace_arguments, _trace,
    ),
}
