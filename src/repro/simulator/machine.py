"""The Encore Multimax machine model.

All costs are in *instructions* of the NS32032 (§2.3: ~0.75 MIPS per
processor, two per board, 100 MB/s Nanobus).  The calibration anchors
come from the paper itself:

* a constant-test node activation costs ~3 instructions (§3.1) and is
  therefore grouped;
* the average two-input task runs ~115 instructions for Weaver and
  100–700 across the three programs (§4.1/§5);
* the MRSW lock scheme adds enough per-activation overhead to raise
  uniprocessor match time by ~3–13% (Table 4-8 vs 4-6).

The per-task cost is assembled from the trace's size features::

    join/not task = join_base
                  + per_opp_examined  * tokens examined in opposite memory
                  + per_same_examined * tokens scanned locating a delete
                  + per_child_build   * output tokens built
    (+ queue push cost per output token, paid at push time)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..rete.trace import TaskColumns, TaskRecord


@dataclass(frozen=True)
class MachineConfig:
    """Instruction-level cost model of PSM-E on the Multimax."""

    # Processor speed, for converting instruction counts to seconds.
    mips: float = 0.75

    # Spin locks (test and test-and-set): one spin iteration's length,
    # and the bus-traffic penalty added to a contended handoff per
    # concurrent waiter (the TTAS release storm).  The storm penalty
    # matters for the *long-hold* hash-line locks, where waiters pile up
    # during an occupancy; the few-instruction queue critical sections
    # release before a storm can assemble, so they carry no penalty.
    spin_period: int = 8
    ttas_handoff: int = 8
    queue_handoff: int = 0

    # Task queue operations (lock hold times; TaskCount maintenance is
    # folded in, as the counter is updated next to the queue accesses).
    # These are *pointer* pushes/pops in hand-tuned code — the paper
    # stresses that only very limited overheads can be tolerated.
    queue_push: int = 5
    queue_pop: int = 6

    # How long a parked (idle) process takes to notice a new task.
    poll_delay: int = 8

    # Constant-test (alpha) network.
    change_dispatch: int = 12        # root-token handling + class hash
    const_test: int = 3              # the paper's number
    alpha_group_size: int = 16       # constant tests grouped per task
    alpha_fanout_split: int = 10     # successors per constant-test group
    alpha_group_overhead: int = 12   # task bookkeeping per group

    # Two-input node activations.
    join_base: int = 40
    per_opp_examined: int = 6
    per_same_examined: int = 4
    per_child_build: int = 16
    not_extra: int = 10              # negated nodes also maintain counts

    # Split of the join cost for the MRSW scheme: the memory update
    # (under the modification lock) vs the opposite-memory search.
    update_base: int = 18

    # Terminal nodes (conflict-set update, under the conflict-set lock).
    term_cost: int = 30

    # Line locks.
    line_lock_hold_overhead: int = 2   # simple flag set/clear
    mrsw_guard_hold: int = 4           # flag+counter check under guard
    mrsw_overhead: int = 12            # two guard passes + bookkeeping
    requeue_cost: int = 18             # give up the line, push task back

    # Control process.
    rhs_change_cost: int = 70          # threaded-code eval per WM change
    cr_base: int = 80                  # conflict resolution fixed cost
    cr_per_delta: int = 25             # per conflict-set change

    def seconds(self, instructions: float) -> float:
        return instructions / (self.mips * 1e6)

    def with_overrides(self, **kw) -> "MachineConfig":
        return replace(self, **kw)


#: The configuration used throughout the benchmarks.
DEFAULT_CONFIG = MachineConfig()


def task_cost(task: TaskRecord, config: MachineConfig) -> int:
    """Total execution cost of one traced task (excluding lock waits
    and child-push queue operations, which the simulator adds)."""
    if task.kind == "term":
        return config.term_cost
    cost = (
        config.join_base
        + config.per_opp_examined * task.opp_examined
        + config.per_same_examined * task.same_examined
        + config.per_child_build * task.n_children
    )
    if task.kind == "not":
        cost += config.not_extra
    return cost


def task_cost_parts(task: TaskRecord, config: MachineConfig) -> Tuple[int, int, int]:
    """(update, scan, build) cost split of a two-input activation.

    * *update* — add/delete the token in this node's memory, including
      the same-memory scan locating a delete target (held under the
      modification lock in the MRSW scheme);
    * *scan* — examine the opposite memory for consistent tokens (held
      under the line flag; concurrent for same-side MRSW users);
    * *build* — construct the output tokens (private work: runs after
      the line is released in both schemes).
    """
    update = config.update_base + config.per_same_examined * task.same_examined
    if task.kind == "not":
        update += config.not_extra
    scan = (config.join_base - config.update_base) + config.per_opp_examined * task.opp_examined
    build = config.per_child_build * task.n_children
    return update, scan, build


def task_columns(columns: TaskColumns, config: MachineConfig, lock_scheme: str):
    """The same costs as columns indexed by tid: ``(first, scan, build)``.

    ``first`` is what a task holds its hash line for before anything
    else: the whole simple-lock hold (update + scan + flag set/clear),
    or under ``"mrsw"`` the update alone (the modification lock).  A
    task that takes no line lock — a terminal, or a node without a
    hashed memory — has ``None`` there and its whole :func:`task_cost`
    in ``build``.  Kept on ``columns`` for the last ``(config,
    lock_scheme)`` only; a new scheme alone reprices ``first`` and
    shares the rest.  Held to :func:`task_cost` / :func:`task_cost_parts`
    task by task in ``tests/simulator/test_event_budget.py``.
    """
    last = columns.costs
    if last is not None and last[0] == config:
        if last[1] == lock_scheme:
            return last[2:]
        scan, build = last[3], last[4]
    else:
        scan = build = None
    kinds, lines = columns.kind, columns.line
    update_base, per_same = config.update_base, config.per_same_examined
    not_extra = config.not_extra
    update = [
        update_base + per_same * same + (not_extra if kind == "not" else 0)
        for same, kind in zip(columns.same, kinds)
    ]
    if scan is None:
        scan_base, per_opp = config.join_base - update_base, config.per_opp_examined
        per_build, term_cost = config.per_child_build, config.term_cost
        scan = [scan_base + per_opp * opp for opp in columns.opp]
        build = [
            term_cost if kind == "term"
            else per_build * n if line >= 0
            else u + s + per_build * n
            for kind, line, n, u, s in zip(kinds, lines, columns.n_children, update, scan)
        ]
    mrsw, flag_cost = lock_scheme == "mrsw", config.line_lock_hold_overhead
    first = [
        None if kind == "term" or line < 0 else u if mrsw else u + s + flag_cost
        for kind, line, u, s in zip(kinds, lines, update, scan)
    ]
    columns.costs = (config, lock_scheme, first, scan, build)
    return first, scan, build


def alpha_tasks(n_const_tests: int, n_children: int, config: MachineConfig):
    """Split one WM change's constant-test work into group tasks.

    Returns a list of ``(cost, n_children_of_group)`` pairs; children
    (first-level two-input activations) are distributed round-robin.
    """
    group = max(config.alpha_group_size, 1)
    # Group by constant tests AND by successor count: a chain of
    # constant-test activations that fans out to many two-input nodes
    # is split so the successor pushes are not serialized on one
    # process.
    n_groups = max(
        1,
        -(-n_const_tests // group),
        -(-n_children // max(config.alpha_fanout_split, 1)),
    )
    tests_left = n_const_tests
    out = []
    for g in range(n_groups):
        tests = min(group, tests_left) if g < n_groups - 1 else tests_left
        tests_left -= tests
        kids = n_children // n_groups + (1 if g < n_children % n_groups else 0)
        cost = config.change_dispatch + config.const_test * tests + config.alpha_group_overhead
        out.append((cost, kids))
    return out
