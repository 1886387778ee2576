"""The workload table: what each workload runs, at which size, and its golden.

Sizes are chosen for a 2-core host so that one repetition takes one to
three seconds and several fit in a 10-second run; ``QUICK`` is the size
table the self-tests drive through the same code.  The seed reaches
only the input generators (the rubik scramble, the serve traffic):
weaver and tourney have no random input, so every seed gives them the
same text.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.programs import rubik, tourney, weaver
from repro.serve import protocol, traffic

import program
import serve
import sim
from measure import Measurement
from program import Contrast, Program

DEFAULT_SEED = 1988
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: name -> size parameters; the second table is ``--quick``.
SIZES = {
    "weaver-cold": {"grid": 8, "n_nets": 4},
    "rubik-match": {"n_moves": 16},
    "tourney-cross": {"n_teams": 26, "n_rounds": 40},
    "weaver-corgi": {"grid": 8, "n_nets": 4},
    "weaver-mp2": {"grid": 6, "n_nets": 1},
    "serve-churn": {"connections": 2, "sessions": 12, "transactions": 60},
    "sim-weaver": {"grid": 5, "n_nets": 1},
}
QUICK = {
    "weaver-cold": {"n_classes": 2, "n_bands": 4, "grid": 5, "n_nets": 1},
    "rubik-match": {"n_moves": 2},
    "tourney-cross": {"n_teams": 10, "n_rounds": 6},
    "weaver-corgi": {"n_classes": 2, "n_bands": 4, "grid": 5, "n_nets": 1},
    "weaver-mp2": {"n_classes": 2, "n_bands": 4, "grid": 5, "n_nets": 1},
    "serve-churn": {"connections": 2, "sessions": 2, "transactions": 12},
    "sim-weaver": {"n_classes": 2, "n_bands": 4, "grid": 5, "n_nets": 1},
}


def _size(name: str, quick: bool) -> Dict[str, int]:
    return (QUICK if quick else SIZES)[name]


def _weaver(name: str):
    return lambda seed, quick: weaver.source(**_size(name, quick))


def _rubik_source(seed: int, quick: bool) -> str:
    n_moves = _size("rubik-match", quick)["n_moves"]
    # The cube model vouches for the input: a scramble followed by its
    # inverse, so a correct run must end by printing "cube solved".
    if not rubik.expected_final_state(n_moves, seed):
        raise AssertionError("cube model: scramble + inverse is not solved")
    return rubik.source(n_moves=n_moves, seed=seed)


def _rubik_solved(output: List[str]) -> Optional[str]:
    return None if "cube solved" in output else "rubik did not print 'cube solved'"


def _tourney_scheduled(output: List[str]) -> Optional[str]:
    if any(line.startswith("error") for line in output):
        return "tourney reported an error: " + output[-1]
    if not any(line.startswith("scheduled") for line in output):
        return "tourney did not report its schedule"
    return None


PROGRAMS: Dict[str, Program] = {
    "weaver-cold": Program(_weaver("weaver-cold")),
    "rubik-match": Program(
        _rubik_source, invariant=_rubik_solved,
        contrast=Contrast("rete.memories.linear_hash_x", opts={"memory": "linear"}),
    ),
    "tourney-cross": Program(
        lambda seed, quick: tourney.source(**_size("tourney-cross", quick)),
        invariant=_tourney_scheduled,
        contrast=Contrast("obs.bus_on_x", bus=True),
    ),
    "weaver-corgi": Program(_weaver("weaver-corgi"), engine="corgi"),
    "weaver-mp2": Program(
        _weaver("weaver-mp2"), engine="mp", opts={"n_workers": 2},
        contrast=Contrast("parallel.mp.speedup_vs_seq"),
    ),
}

#: Every workload, in report order.
NAMES = (*PROGRAMS, "serve-churn", "sim-weaver")


def serve_plan(seed: int, quick: bool):
    """Per connection, the ``(session index, Traffic)`` it replays."""
    size = _size("serve-churn", quick)
    n = size["sessions"]
    return [
        [(i, traffic.build("mix", i, size["transactions"], seed))
         for i in range(c * n, (c + 1) * n)]
        for c in range(size["connections"])
    ]


def _plan_text(plan) -> str:
    """The serve input as one canonical text (for digests and tests)."""
    return json.dumps(
        [[(i, t.program, [(protocol.ops_to_wire(list(x.ops)), x.max_cycles)
                          for x in t.txns]) for i, t in sessions]
         for sessions in plan],
        separators=(",", ":"),
    )


def input_text(name: str, seed: int, quick: bool = False) -> str:
    """The generated input of a workload: all the program ever sees."""
    if name == "serve-churn":
        return _plan_text(serve_plan(seed, quick))
    if name == "sim-weaver":
        return weaver.source(**_size(name, quick))
    return PROGRAMS[name].source(seed, quick)


def reference(name: str, seed: int, quick: bool) -> Dict[str, object]:
    """The expected outputs, computed by the sequential engine."""
    if name == "serve-churn":
        plan = serve_plan(seed, quick)
        traffics = {i: t for sessions in plan for i, t in sessions}
        return serve.digest(serve.local_replay(traffics)[0])
    text = input_text(name, seed, quick)
    if name == "sim-weaver":
        return sim.reference(text)
    return program.reference(text)


def _input_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_golden(name: str, seed: int, quick: bool, golden_dir: Path) -> Path:
    golden_dir.mkdir(parents=True, exist_ok=True)
    path = golden_dir / f"{name}.json"
    doc = {
        "workload": name,
        "seed": seed,
        "input_sha256": _input_sha(input_text(name, seed, quick)),
        "expected": reference(name, seed, quick),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_golden(name: str, text: str, golden_dir: Path) -> Optional[Dict[str, object]]:
    """The committed expectation for exactly this input, if there is one."""
    path = golden_dir / f"{name}.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return doc["expected"] if doc["input_sha256"] == _input_sha(text) else None


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, golden_dir: Path = GOLDEN_DIR) -> Measurement:
    """Run one workload in this process."""
    text = input_text(name, seed, quick)
    expected = read_golden(name, text, golden_dir)
    if name == "serve-churn":
        # The local replay is always the reference; a golden also pins it.
        return serve.measure(serve_plan(seed, quick), expected, seconds, trace)
    if expected is None:
        # Hold-out seed or size: no golden, so the sequential engine's
        # answer on the same input is the expectation.
        expected = reference(name, seed, quick)
    if name == "sim-weaver":
        return sim.measure(text, expected, seconds, trace)
    return program.measure(PROGRAMS[name], text, expected, seconds, trace)
