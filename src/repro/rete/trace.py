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
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .memories import MemorySystem, key_hash, line_hash_from

# Task kinds
ROOT = "root"      # a WM change entering the network (constant-test work)
JOIN = "join"
NOT = "not"
TERM = "term"


class TaskRecord(NamedTuple):
    """One node activation = one schedulable task.  A tuple: a trace
    holds one per activation for as long as the simulator replays it,
    and the kernel builds each with one C-level ``tuple.__new__``."""

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
    """The full task DAG of one program run.  Append-only: a task once
    recorded is never replaced, so :meth:`columns` can tell a stale
    derivation by its task list and that list's length."""

    cycles: List[CycleRecord] = field(default_factory=list)
    tasks: List[TaskRecord] = field(default_factory=list)
    _columns: Optional["TaskColumns"] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_changes(self) -> int:
        return sum(len(c.changes) for c in self.cycles)

    def children_index(self) -> List[List[int]]:
        """tid -> list of child tids."""
        return [list(kids) for kids in self.columns().children]

    def columns(self) -> "TaskColumns":
        """The replay's config-independent view of :attr:`tasks`,
        derived once and kept until the trace grows (or is handed a
        new task list)."""
        cols = self._columns
        if cols is None or cols.tasks is not self.tasks or cols.n != len(self.tasks):
            cols = self._columns = TaskColumns(self.tasks)
        return cols

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


class TaskColumns:
    """A trace's tasks as tid-indexed columns, what every replay reads
    whatever its configuration: ``children`` (one shared ``()`` per
    leaf), ``subtree`` sizes, ``line``, ``is_left`` (a bool: it indexes
    a [right, left] pair) and the raw figures the cost model prices.
    ``costs`` is :func:`repro.simulator.machine.task_columns`'s one
    entry: the last configuration priced, never more.
    """

    __slots__ = ("tasks", "n", "children", "subtree", "line", "is_left", "kind",
                 "opp", "same", "n_children", "costs")

    def __init__(self, tasks: List[TaskRecord]) -> None:
        self.tasks = tasks
        self.n = n = len(tasks)
        self.costs: Optional[tuple] = None
        # A task's tid is its index, and it is recorded after its parent.
        parents, self.kind, sides, self.line, self.opp, self.same, self.n_children = [
            list(map(attrgetter(name), tasks)) for name in (
                "parent", "kind", "side", "line", "opp_examined", "same_examined", "n_children")
        ]
        self.is_left = [side == "L" for side in sides]
        children: List[tuple] = [()] * n
        for tid, parent in enumerate(parents):
            if parent >= 0:
                kids = children[parent]
                if kids:
                    kids.append(tid)
                else:
                    children[parent] = [tid]
        # From the last task back, a subtree is complete before it is
        # added to its parent's.
        subtree = [1] * n
        for tid in range(n - 1, -1, -1):
            parent = parents[tid]
            if parent >= 0:
                subtree[parent] += subtree[tid]
        self.children = children
        self.subtree = subtree


class TraceRecorder:
    """Collects a :class:`MatchTrace`; wired into the sequential matcher."""

    def __init__(self) -> None:
        self.trace = MatchTrace()
        self._cycle: Optional[CycleRecord] = None
        #: The change being recorded: the kernel files its tasks under it.
        self.change: Optional[ChangeRecord] = None
        #: bucket ``(node_id, key)`` -> its line: the kernel hashes a
        #: distinct bucket once per recording (:meth:`line_of`).
        self.lines: Dict[Tuple[int, tuple], int] = {}
        self._key_hashes: Dict[tuple, int] = {}

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
        self.change = None

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
        self.change = change
        return change

    # -- task recording (the kernel's loop appends the records) -----------

    def line_of(self, memory: MemorySystem, slot: Tuple[int, tuple]) -> int:
        """``memory.line_of(*slot)``, entered once per bucket the kernel
        did not find in :attr:`lines`, and memoised there."""
        node_id, key = slot
        if memory.keyed:
            h = self._key_hashes.get(key)
            if h is None:
                h = self._key_hashes[key] = key_hash(key)
            line = line_hash_from(node_id, h) % memory.n_lines
        else:
            line = node_id
        self.lines[slot] = line
        return line
