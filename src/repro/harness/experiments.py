"""Experiment runners: one function per table/figure of the paper.

Each returns an :class:`ExperimentResult` holding the measured data,
the paper's data, and a rendered paper-vs-measured text table.  The
``benchmarks/`` suite calls these and asserts the *shape* criteria
listed in DESIGN.md (who wins, rough factors, crossovers) — absolute
numbers differ because our substrate is a simulator, not the authors'
Multimax (see EXPERIMENTS.md).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Sequence

from ..cli import Verb
from . import paperdata
from .paperdata import PROCS, PROGRAMS, QUEUES_MULTI
from .tables import render_table
from .workloads import baseline, counted_run, sim, speedup, timed_run, traced_run


@dataclass
class ExperimentResult:
    """Measured data for one experiment plus its report."""

    table_id: str
    data: Dict = field(default_factory=dict)
    report: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.report


# ---------------------------------------------------------------------------
# Table 4-1: uniprocessor vs1 (linear) vs vs2 (hash)
# ---------------------------------------------------------------------------


def table_4_1() -> ExperimentResult:
    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        vs1_s, stats1 = timed_run(prog, memory="linear", mode="compiled")
        vs2_s, stats2 = timed_run(prog, memory="hash", mode="compiled")
        paper = paperdata.TABLE_4_1[prog]
        data[prog] = {
            "vs1_s": vs1_s,
            "vs2_s": vs2_s,
            "wm_changes": stats2.wme_changes,
            "activations": stats2.node_activations,
            "paper": paper,
        }
        rows.append([prog + " (paper)", paper["vs1_s"], paper["vs2_s"],
                     paper["vs1_s"] / paper["vs2_s"],
                     paper["wm_changes"], paper["activations"]])
        rows.append([prog + " (ours)", vs1_s, vs2_s,
                     vs1_s / vs2_s if vs2_s else 0.0,
                     stats2.wme_changes, stats2.node_activations])
    report = render_table(
        "Table 4-1: uniprocessor versions (vs1 linear vs vs2 hash memories)",
        ["program", "vs1 (s)", "vs2 (s)", "vs1/vs2", "WM changes", "activations"],
        rows,
    )
    return ExperimentResult("4-1", data, report)


# ---------------------------------------------------------------------------
# Tables 4-2 / 4-3: tokens examined
# ---------------------------------------------------------------------------


def table_4_2() -> ExperimentResult:
    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        lin = counted_run(prog, memory="linear")
        hsh = counted_run(prog, memory="hash")
        paper = paperdata.TABLE_4_2[prog]
        measured = {
            "lin_left": lin.mean_opp_left,
            "hash_left": hsh.mean_opp_left,
            "lin_right": lin.mean_opp_right,
            "hash_right": hsh.mean_opp_right,
        }
        data[prog] = {"measured": measured, "paper": paper}
        rows.append([prog + " (paper)", paper["lin_left"], paper["hash_left"],
                     paper["lin_right"], paper["hash_right"]])
        rows.append([prog + " (ours)", measured["lin_left"], measured["hash_left"],
                     measured["lin_right"], measured["hash_right"]])
    report = render_table(
        "Table 4-2: mean tokens examined in the opposite memory",
        ["program", "lin left", "hash left", "lin right", "hash right"],
        rows,
    )
    return ExperimentResult("4-2", data, report)


def table_4_3() -> ExperimentResult:
    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        lin = counted_run(prog, memory="linear")
        hsh = counted_run(prog, memory="hash")
        paper = paperdata.TABLE_4_3[prog]
        measured = {
            "lin_left": lin.mean_same_del_left,
            "hash_left": hsh.mean_same_del_left,
            "lin_right": lin.mean_same_del_right,
            "hash_right": hsh.mean_same_del_right,
        }
        data[prog] = {"measured": measured, "paper": paper}
        rows.append([prog + " (paper)", paper["lin_left"], paper["hash_left"],
                     paper["lin_right"], paper["hash_right"]])
        rows.append([prog + " (ours)", measured["lin_left"], measured["hash_left"],
                     measured["lin_right"], measured["hash_right"]])
    report = render_table(
        "Table 4-3: mean tokens examined in the same memory for deletes",
        ["program", "lin left", "hash left", "lin right", "hash right"],
        rows,
    )
    return ExperimentResult("4-3", data, report)


# ---------------------------------------------------------------------------
# Table 4-4: interpreted (Lisp analogue) vs compiled (C analogue)
# ---------------------------------------------------------------------------


def table_4_4() -> ExperimentResult:
    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        lisp_s, _ = timed_run(prog, memory="linear", mode="interpreted")
        vs2_s, _ = timed_run(prog, memory="hash", mode="compiled")
        paper = paperdata.TABLE_4_4[prog]
        ratio = lisp_s / vs2_s if vs2_s else 0.0
        data[prog] = {"lisp_s": lisp_s, "vs2_s": vs2_s, "speedup": ratio, "paper": paper}
        rows.append([prog + " (paper)", paper["lisp_s"], paper["vs2_s"], paper["speedup"]])
        rows.append([prog + " (ours)", lisp_s, vs2_s, ratio])
    report = render_table(
        "Table 4-4: interpreted+linear ('Lisp') vs compiled+hash (vs2)",
        ["program", "interp (s)", "vs2 (s)", "speed-up"],
        rows,
    )
    return ExperimentResult("4-4", data, report)


# ---------------------------------------------------------------------------
# Tables 4-5 / 4-6 / 4-8: parallel speed-ups
# ---------------------------------------------------------------------------


def _speedup_table(
    table_id: str,
    title: str,
    queues: Sequence[int],
    lock_scheme: str,
    paper_table: Dict,
) -> ExperimentResult:
    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        base = baseline(prog, lock_scheme=lock_scheme)
        speedups = [
            speedup(prog, n_match=k, n_queues=q, lock_scheme=lock_scheme)
            for k, q in zip(PROCS, queues)
        ]
        paper = paper_table[prog]
        data[prog] = {
            "uniproc_s": base.match_seconds,
            "speedups": speedups,
            "paper": paper,
        }
        rows.append([prog + " (paper)", paper["uniproc_s"]] + list(paper["speedups"]))
        rows.append([prog + " (ours)", base.match_seconds] + speedups)
    headers = ["program", "uniproc (s)"] + [
        f"1+{k}/{q}q" for k, q in zip(PROCS, queues)
    ]
    return ExperimentResult(table_id, data, render_table(title, headers, rows))


def table_4_5() -> ExperimentResult:
    return _speedup_table(
        "4-5",
        "Table 4-5: speed-up, single task queue, simple hash-table locks",
        paperdata.QUEUES_SINGLE,
        "simple",
        paperdata.TABLE_4_5,
    )


def table_4_6() -> ExperimentResult:
    return _speedup_table(
        "4-6",
        "Table 4-6: speed-up, multiple task queues, simple hash-table locks",
        QUEUES_MULTI,
        "simple",
        paperdata.TABLE_4_6,
    )


def table_4_8() -> ExperimentResult:
    return _speedup_table(
        "4-8",
        "Table 4-8: speed-up, multiple task queues, MRSW hash-table locks",
        QUEUES_MULTI,
        "mrsw",
        paperdata.TABLE_4_8,
    )


# ---------------------------------------------------------------------------
# Table 4-7: task-queue contention
# ---------------------------------------------------------------------------


def table_4_7() -> ExperimentResult:
    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        spins = [
            sim(prog, n_match=k, n_queues=1, lock_scheme="simple").queue_stats.mean_spins
            for k in PROCS
        ]
        paper = paperdata.TABLE_4_7[prog]
        data[prog] = {"spins": spins, "paper": paper}
        rows.append([prog + " (paper)"] + list(paper))
        rows.append([prog + " (ours)"] + spins)
    headers = ["program"] + [f"1+{k}" for k in PROCS]
    report = render_table(
        "Table 4-7: mean spins on the central task-queue lock (1 queue)",
        headers,
        rows,
    )
    return ExperimentResult("4-7", data, report)


# ---------------------------------------------------------------------------
# Table 4-9: hash-table line-lock contention
# ---------------------------------------------------------------------------


def table_4_9() -> ExperimentResult:
    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        entry: Dict = {"paper": paperdata.TABLE_4_9[prog]}
        for scheme in ("simple", "mrsw"):
            for procs in (6, 12):
                run = sim(prog, n_match=procs, n_queues=8, lock_scheme=scheme)
                entry[(scheme, procs)] = {
                    "left": run.line_left.mean_spins,
                    "right": run.line_right.mean_spins,
                    "requeues": run.requeues,
                }
        data[prog] = entry
        paper = entry["paper"]
        rows.append(
            [prog + " (paper)",
             paper["simple"][6]["left"], paper["simple"][6]["right"],
             paper["simple"][12]["left"], paper["simple"][12]["right"],
             paper["mrsw"][6]["left"], paper["mrsw"][6]["right"],
             paper["mrsw"][12]["left"], paper["mrsw"][12]["right"]]
        )
        rows.append(
            [prog + " (ours)",
             entry[("simple", 6)]["left"], entry[("simple", 6)]["right"],
             entry[("simple", 12)]["left"], entry[("simple", 12)]["right"],
             entry[("mrsw", 6)]["left"], entry[("mrsw", 6)]["right"],
             entry[("mrsw", 12)]["left"], entry[("mrsw", 12)]["right"]]
        )
    headers = [
        "program",
        "smp6 L", "smp6 R", "smp12 L", "smp12 R",
        "mrsw6 L", "mrsw6 R", "mrsw12 L", "mrsw12 R",
    ]
    report = render_table(
        "Table 4-9: mean spins on token hash-table line locks",
        headers,
        rows,
    )
    return ExperimentResult("4-9", data, report)


# ---------------------------------------------------------------------------
# §4.2: the Tourney cross-product fix
# ---------------------------------------------------------------------------


def tourney_fix() -> ExperimentResult:
    before = speedup("tourney", n_match=13, n_queues=8, lock_scheme="simple")
    after = speedup("tourney_fixed", n_match=13, n_queues=8, lock_scheme="simple")
    paper = paperdata.TOURNEY_FIX
    data = {"before": before, "after": after, "paper": paper}
    rows = [
        ["tourney (paper)", paper["before"], paper["after"], paper["after"] / paper["before"]],
        ["tourney (ours)", before, after, after / before if before else 0.0],
    ]
    report = render_table(
        "§4.2: rewriting Tourney's two cross-product productions (1+13, 8 queues)",
        ["program", "before", "after", "gain"],
        rows,
    )
    return ExperimentResult("tourney-fix", data, report)


# ---------------------------------------------------------------------------
# §4.1: mean task durations
# ---------------------------------------------------------------------------


def task_durations() -> ExperimentResult:
    from ..simulator.machine import DEFAULT_CONFIG, task_cost

    data: Dict[str, Dict] = {}
    rows = []
    for prog in PROGRAMS:
        run = traced_run(prog)
        costs = [task_cost(t, DEFAULT_CONFIG) for t in run.trace.tasks]
        mean_instr = sum(costs) / len(costs) if costs else 0.0
        paper_us = paperdata.MEAN_TASK_US[prog]
        paper_instr = paper_us * 0.5  # 0.5 MIPS Microvax
        data[prog] = {"mean_instr": mean_instr, "paper_instr": paper_instr}
        rows.append([prog, paper_instr, mean_instr])
    report = render_table(
        "§4.1: mean task duration (instructions)",
        ["program", "paper (instr @0.5MIPS)", "ours (instr)"],
        rows,
    )
    return ExperimentResult("task-durations", data, report)


ALL_TABLES = {
    "4-1": table_4_1,
    "4-2": table_4_2,
    "4-3": table_4_3,
    "4-4": table_4_4,
    "4-5": table_4_5,
    "4-6": table_4_6,
    "4-7": table_4_7,
    "4-8": table_4_8,
    "4-9": table_4_9,
    "tourney-fix": tourney_fix,
    "task-durations": task_durations,
}


def _tables(args) -> int:
    selected = args.ids or list(ALL_TABLES)
    unknown = [t for t in selected if t not in ALL_TABLES]
    if unknown:
        print(f"unknown tables: {unknown}; available: {sorted(ALL_TABLES)}", file=sys.stderr)
        return 2
    for table_id in selected:
        print(ALL_TABLES[table_id]().report)
        print()
    return 0


VERBS = {"tables": Verb(
    "tables",
    "Regenerate the paper's tables, paper vs measured (all of them by default): "
    + ", ".join(ALL_TABLES) + ".",
    lambda p: p.add_argument("ids", nargs="*", metavar="ID"), _tables,
)}
