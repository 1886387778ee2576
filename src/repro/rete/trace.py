"""Task-graph capture for trace-driven multiprocessor simulation.

While the sequential matcher runs, a :class:`TraceRecorder` records one
:class:`TaskRecord` per node activation — the paper's schedulable unit
of work — preserving the parent/child structure (which activation's
output tokens spawned which tasks), the hash-table line each two-input
activation touches, and the size features (tokens examined, output
tokens) that the simulator's instruction-cost model consumes.

The recorded trace is a faithful *task DAG* of the real match: the
Encore simulator replays it under different process counts, task-queue
counts and lock schemes.  This mirrors the methodology of Gupta's
thesis (ref [4] of the paper), where parallel OPS5 performance was
first studied by trace-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

# Task kinds
ROOT = "root"      # a WM change entering the network (constant-test work)
JOIN = "join"
NOT = "not"
TERM = "term"


@dataclass(slots=True)
class TaskRecord:
    """One node activation = one schedulable task.  Slotted: a trace
    holds one per activation for as long as the simulator replays it."""

    tid: int
    parent: int              # -1 for first-level tasks (children of a change)
    kind: str
    node_id: int
    side: str                # 'L' or 'R' ('-' for terminals)
    sign: int
    line: int                # hash-table line touched (-1 if none)
    opp_examined: int        # tokens scanned in the opposite memory
    same_examined: int       # tokens scanned locating a delete target
    n_children: int
    change_seq: int          # index of the owning WM change within its cycle


@dataclass
class ChangeRecord:
    """One WM change: the root of a subtree of tasks."""

    seq: int                 # position within the cycle (RHS action order)
    n_const_tests: int
    n_alpha_hits: int
    first_level: List[int] = field(default_factory=list)   # tids


@dataclass
class CycleRecord:
    """One recognize-act cycle."""

    index: int
    production: str
    n_rhs_actions: int
    changes: List[ChangeRecord] = field(default_factory=list)
    cs_deltas: int = 0


@dataclass
class MatchTrace:
    """The full task DAG of one program run."""

    cycles: List[CycleRecord] = field(default_factory=list)
    tasks: List[TaskRecord] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_changes(self) -> int:
        return sum(len(c.changes) for c in self.cycles)

    def children_index(self) -> List[List[int]]:
        """tid -> list of child tids (built on demand for the simulator)."""
        children: List[List[int]] = [[] for _ in self.tasks]
        for task in self.tasks:
            if task.parent >= 0:
                children[task.parent].append(task.tid)
        return children

    def summary(self) -> dict:
        per_kind: dict = {}
        for t in self.tasks:
            per_kind[t.kind] = per_kind.get(t.kind, 0) + 1
        return {
            "cycles": len(self.cycles),
            "changes": self.n_changes,
            "tasks": self.n_tasks,
            "by_kind": per_kind,
        }


class TraceRecorder:
    """Collects a :class:`MatchTrace`; wired into the sequential matcher."""

    def __init__(self) -> None:
        self.trace = MatchTrace()
        self._cycle: Optional[CycleRecord] = None
        self._change: Optional[ChangeRecord] = None

    # -- cycle / change boundaries (called by the interpreter/matcher) ----

    def begin_cycle(self, production: str, n_rhs_actions: int) -> None:
        self._cycle = CycleRecord(
            index=len(self.trace.cycles),
            production=production,
            n_rhs_actions=n_rhs_actions,
        )
        self.trace.cycles.append(self._cycle)

    def end_cycle(self, cs_deltas: int) -> None:
        if self._cycle is not None:
            self._cycle.cs_deltas = cs_deltas
        self._cycle = None
        self._change = None

    def begin_change(self, n_const_tests: int, n_alpha_hits: int) -> ChangeRecord:
        if self._cycle is None:
            # Startup changes run outside any production firing; give
            # them a synthetic cycle so the simulator sees them.
            self.begin_cycle("<startup>", 0)
        assert self._cycle is not None
        change = ChangeRecord(
            seq=len(self._cycle.changes),
            n_const_tests=n_const_tests,
            n_alpha_hits=n_alpha_hits,
        )
        self._cycle.changes.append(change)
        self._change = change
        return change

    # -- task recording (called by the matcher's scheduling loop) ---------

    def add_task(
        self,
        parent: int,
        kind: str,
        node_id: int,
        side: str,
        sign: int,
        line: int,
        opp_examined: int,
        same_examined: int,
        n_children: int,
    ) -> int:
        tid = len(self.trace.tasks)
        assert self._change is not None, "task recorded outside a change"
        self.trace.tasks.append(
            TaskRecord(
                tid=tid,
                parent=parent,
                kind=kind,
                node_id=node_id,
                side=side,
                sign=sign,
                line=line,
                opp_examined=opp_examined,
                same_examined=same_examined,
                n_children=n_children,
                change_seq=self._change.seq,
            )
        )
        if parent < 0:
            self._change.first_level.append(tid)
        return tid
