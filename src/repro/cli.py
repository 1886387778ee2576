"""The front door: ``python -m repro VERB ...`` (console script ``repro``).

Every verb is a :class:`Verb` registered beside the code it drives;
this module holds only that record, the one :func:`dispatch` function
and the top-level table.  A registry maps a verb name to the module
whose ``VERBS`` dict holds it (imported only when that verb is used —
``repro serve`` start-up never pays for the proof harness or the perf
observatory) plus the one-line summary ``--help`` lists.  An entry of
``VERBS`` is either a :class:`Verb` or another registry — the groups
``check``, ``obs`` and ``bench`` — which the same function dispatches.

There is no verb catalogue here: ``repro --help`` lists the verbs,
``repro VERB --help`` prints that verb's own description and flags.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union


@dataclass(frozen=True)
class Verb:
    """One registration: a name, its flags, and how to run them."""

    name: str
    #: The description ``repro ... NAME --help`` prints above the flags.
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    #: Parsed flags -> exit status.  A ``ValueError`` (bad flag value,
    #: unreadable or malformed program) is reported by :func:`dispatch`
    #: as ``repro ... NAME: <message>`` with a nonzero exit.
    run: Callable[[argparse.Namespace], int]


#: Verb name -> (module exposing ``VERBS[name]``, one-line summary).
Registry = Dict[str, Tuple[str, str]]

VERBS: Registry = {
    "run": ("repro.engines", "run an OPS5 program"),
    "network": ("repro.rete.explain", "dump the compiled Rete network"),
    "simulate": ("repro.simulator.report",
                 "simulate a program on the Encore Multimax"),
    "tables": ("repro.harness.experiments", "regenerate the paper's tables"),
    "check": ("repro.check",
              "differential proof batteries vs the sequential oracle"),
    "trace": ("repro.obs.verbs",
              "run a program under the obs event bus; export a Chrome trace"),
    "top": ("repro.obs.verbs", "run a program and print one hot-spot table"),
    "obs": ("repro.obs.verbs", "flight recorder, trace-fabric and SLO tools"),
    "serve": ("repro.serve.server",
              "host OPS5 sessions over a line-JSON protocol"),
    "loadgen": ("repro.serve.loadgen",
                "drive a server with concurrent session traffic"),
    "bench": ("repro.perf", "deterministic counter gate (see docs/PERF.md)"),
}


def load(registry: Registry, name: str) -> Union[Verb, Registry]:
    """Import the module registered for ``name`` and return its entry."""
    return importlib.import_module(registry[name][0]).VERBS[name]


def parse(
    registry: Registry, prog: str, argv: List[str]
) -> Tuple[Verb, str, argparse.Namespace]:
    """Resolve ``argv[0]`` in ``registry`` (through groups) and parse the
    rest with that verb's own flags; returns the verb, its full command
    name and the parsed flags."""
    width = max(map(len, registry))
    listing = "\n".join(
        f"  {name:<{width}}  {summary}" for name, (_, summary) in registry.items()
    )
    parser = argparse.ArgumentParser(
        prog=prog,
        usage=f"{prog} [-h] VERB ...",
        epilog=f"verbs (`{prog} VERB --help` for each one's flags):\n{listing}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "verb", metavar="VERB", choices=list(registry), help="one of: %(choices)s"
    )
    name = parser.parse_args(argv[:1]).verb
    entry = load(registry, name)
    prog = f"{prog} {name}"
    if isinstance(entry, dict):  # a group: the same resolution, one level down
        return parse(entry, prog, argv[1:])
    flags = argparse.ArgumentParser(prog=prog, description=entry.help)
    entry.add_arguments(flags)
    return entry, prog, flags.parse_args(argv[1:])


def dispatch(registry: Registry, prog: str, argv: List[str]) -> int:
    """Run the verb ``argv`` names; its exit status is the result."""
    verb, prog, args = parse(registry, prog, argv)
    try:
        return verb.run(args)
    except ValueError as exc:
        raise SystemExit(f"{prog}: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    return dispatch(VERBS, "repro", sys.argv[1:] if argv is None else list(argv))

