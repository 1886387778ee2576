"""Trace-driven discrete-event simulation of PSM-E on the Multimax.

Replays the task DAG recorded by the sequential matcher
(:class:`~repro.rete.trace.MatchTrace`) on ``k`` simulated match
processors plus a control process, under the paper's scheduling and
synchronization regime:

* the control process evaluates the RHS (one WM change per
  ``rhs_change_cost`` instructions) and pushes each change's
  constant-test group tasks onto the task queues as soon as the change
  is computed — match pipelines with RHS evaluation (§3.1);
* match processors loop pop → execute → push-children, contending for
  the queue spin locks (one per task queue) and for the hash-table line
  locks (simple or MRSW, §3.2);
* a cycle's match phase ends when its last task completes (TaskCount
  reaching zero); conflict resolution then runs on the control process
  and the next cycle begins.

The replayed DAG is the *sequential* activation set: the paper notes
(Table 4-6 discussion) that a parallel execution can evaluate slightly
different activations; that second-order effect is outside this model.

Determinism: event ordering uses (time, sequence) keys, lock grants are
FIFO by request time, idle processors wake lowest-id first, and queue
selection is fixed — the control process deals its pushes over the
queues in turn, a match process pushes onto its home queue — so two
runs of the same trace and options give identical results.

Shape: :func:`simulate`, the only way into the model, is one loop over
plain tuples.  A heap entry is ``(time, seq, op, a, b)`` with five
integer opcodes; a poll or a task's first push is held out of the heap
until ``heappushpop`` takes the next event.  A queued traced task is its bare
tid, a constant-test group task a ``(cost, kids)`` pair; every lock is
numbers in the loop's locals (:mod:`.locks` has the model); per-task
costs are the trace's columns (:meth:`~repro.rete.trace.MatchTrace.columns`)
as priced by :func:`~repro.simulator.machine.task_columns`.  The schedule-order
invariant every table is pinned to (``tests/simulator/pinned_sim.json``,
generated by the closure-per-event loop this replaced): what that loop
*scheduled* — an append, a parked process's wake-up, a pop's end, a
hardware hand-over, the next control step — pushes exactly one heap
entry here, in the same order, so the ``(time, seq)`` keys are the
same; what it *called directly* — a finished task pushing its children
and polling, a raced pop rescanning, a rejected MRSW task re-pushing
itself and polling — is a fall-through within one iteration.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop
from types import MappingProxyType
from typing import Dict, List

from ..rete.trace import MatchTrace
from .locks import SpinStats
from .machine import DEFAULT_CONFIG, MachineConfig, alpha_tasks, task_columns


@dataclass(frozen=True)
class SimOptions:
    """One experimental configuration (a cell of Tables 4-5/4-6/4-8), as
    :func:`simulate` takes it and its :class:`SimResult` records it.

    Two extensions go beyond the paper's implemented system:

    * ``hardware_scheduler`` — the hardware task scheduler Gupta
      proposed (the paper: "So far we have not implemented the
      hardware scheduler") — modeled as a zero-contention dispatch
      unit: pushes and pops cost one instruction and never wait;
    * ``overlap_cr`` — footnote 3's first unimplemented optimization:
      conflict resolution overlaps the next cycle's match instead of
      serializing after it.
    """

    n_match: int = 1
    n_queues: int = 1
    lock_scheme: str = "simple"     # 'simple' | 'mrsw'
    pipelined: bool = True          # overlap match with RHS evaluation
    hardware_scheduler: bool = False
    overlap_cr: bool = False

    def __post_init__(self) -> None:
        if self.n_match < 1:
            raise ValueError("need at least one match process")
        if self.n_queues < 1:
            raise ValueError("need at least one task queue")
        if self.lock_scheme not in ("simple", "mrsw"):
            raise ValueError(f"unknown lock scheme {self.lock_scheme!r}")


@dataclass
class SimResult:
    """Aggregate outcome of one simulated run."""

    options: SimOptions
    config: MachineConfig
    match_instr: float = 0.0          # sum of per-cycle match durations
    total_instr: float = 0.0          # wall time incl. RHS + CR
    cycles: int = 0
    tasks_completed: int = 0
    queue_stats: SpinStats = field(default_factory=SpinStats)
    line_left: SpinStats = field(default_factory=SpinStats)
    line_right: SpinStats = field(default_factory=SpinStats)
    requeues: int = 0
    #: Pops satisfied from a non-home queue.
    steals: int = 0

    @property
    def match_seconds(self) -> float:
        return self.config.seconds(self.match_instr)

    @property
    def total_seconds(self) -> float:
        return self.config.seconds(self.total_instr)


# Event opcodes: a heap entry is ``(time, seq, op, a, b)``.
_APPEND = 0     # a = queue index, b = entry: a pushed task lands in its queue
_POLL = 1       # a = pid: a parked process wakes and looks for a task
_POPPED = 2     # a = pid, b = queue index: a pop's critical section ends
_EXECUTE = 3    # a = pid, b = entry: the hardware scheduler hands over a task
_CONTROL = 4    # a = change index: the control process releases one WM change


#: The paper's uniprocessor column, the base of every speed-up: one
#: match process on one task queue, no overlap with RHS evaluation,
#: all the parallel code's overheads.
UNIPROCESSOR = MappingProxyType(dict(n_match=1, n_queues=1, pipelined=False))


def simulate(
    trace: MatchTrace,
    n_match: int,
    n_queues: int = 1,
    lock_scheme: str = "simple",
    pipelined: bool = True,
    config: MachineConfig = DEFAULT_CONFIG,
    *,
    hardware_scheduler: bool = False,
    overlap_cr: bool = False,
) -> SimResult:
    """Replay ``trace`` on ``n_match`` match processes and ``n_queues``
    task queues of the machine ``config``: the one way into the event
    loop (the arguments are :class:`SimOptions`'s fields)."""
    opts = SimOptions(n_match, n_queues, lock_scheme, pipelined, hardware_scheduler, overlap_cr)
    columns = trace.columns()
    children, subtree = columns.children, columns.subtree
    line, is_left = columns.line, columns.is_left
    first, scan, build = task_columns(columns, config, lock_scheme)

    simple = lock_scheme == "simple"
    spin_period, poll_delay = config.spin_period, config.poll_delay
    queue_push, queue_pop = config.queue_push, config.queue_pop
    queue_handoff, line_handoff = config.queue_handoff, config.ttas_handoff
    guard_hold, mrsw_overhead = config.mrsw_guard_hold, config.mrsw_overhead
    requeue_cost, rhs_change_cost = config.requeue_cost, config.rhs_change_cost

    # The next event is the least of the heap and ``held``: a cycle's
    # start, a poll or a task's first push waits there to go in by
    # ``heappushpop``; any entry may go straight onto the heap.
    heap: List[tuple] = []
    held = None
    seq = 0
    # Task queues and their spin locks persist across cycles.  A
    # queue entry is a traced task's bare tid, or ``(cost, kids)``
    # for a constant-test group task.  A spin lock is the time it
    # falls free plus, when its handoff penalty is non-zero, the
    # grant times of requests still waiting (locks.py has the
    # model).  Grants never decrease, so that list is sorted and
    # the requests a time ``t`` still waits behind are a suffix.
    queues: List[list] = [[] for _ in range(n_queues)]
    queue_free = [0.0] * n_queues
    queue_waiting: List[list] = [[] for _ in range(n_queues)]
    line_free: Dict[int, float] = {}
    line_waiting: Dict[int, list] = {}
    # An MRSW line: [guard free-at, guard grants waiting, mod
    # free-at, mod grants waiting, flag (0 unused, 1 left, 2 right),
    # the latest exit of a user admitted].
    mrsw_lines: Dict[int, list] = {}
    # Home queue first, then the peers in ring order.
    scan_order = [
        [(pid + offset) % n_queues for offset in range(n_queues)]
        for pid in range(n_match)
    ]
    # The control process deals its pushes over the queues in turn;
    # a match process pushes onto its home queue.
    control_pushes = 0
    queue_acquisitions = queue_spins = requeues = steals = completed = 0
    line_acquisitions, line_spins, line_requeues = [0, 0], [0, 0], [0, 0]  # [right, left]
    clock = total_match = 0.0

    for cycle in trace.cycles:
        changes = cycle.changes
        rhs_end = clock + rhs_change_cost * len(changes)
        cr_cost = config.cr_base + config.cr_per_delta * cycle.cs_deltas
        if not changes:
            clock = rhs_end + cr_cost
            continue

        # Each change's constant-test group tasks, its first-level
        # tasks dealt round-robin over them; TaskCount starts at
        # the groups plus every traced task below them.
        work = []
        remaining = 0
        for change in changes:
            kids = change.first_level
            groups = alpha_tasks(change.n_const_tests, len(kids), config)
            n = len(groups)
            work.append([(cost, kids[g::n]) for g, (cost, _kids) in enumerate(groups)])
            remaining += n
            for tid in kids:
                remaining += subtree[tid]
        completed += remaining
        last_finish = clock
        idle = list(range(n_match))    # parked pids, sorted

        # The control process computes changes one by one, pushing
        # each change's group tasks as soon as it is ready.  It
        # runs as events interleaved with the match processes —
        # issuing all pushes up front would reserve the queue locks
        # far into the future and starve the workers at cycle start.
        match_start = clock + rhs_change_cost if pipelined else rhs_end
        seq += 1
        held = (match_start, seq, _CONTROL, 0, None)

        while True:
            if held is not None:
                t, _, op, a, b = heappushpop(heap, held)
                held = None
            elif heap:
                t, _, op, a, b = heappop(heap)
            else:
                break
            if op == _APPEND:
                queues[a].append(b)
                if idle:
                    seq += 1
                    held = (t + poll_delay, seq, _POLL, idle.pop(0), None)
                continue

            # What this event pushes, one entry after another from
            # time ``t``: a released change's group tasks, a
            # finished task's children, a rejected task itself.
            finished = False
            if op == _CONTROL:
                pid = None
                pushes = work[a]
            else:
                pid = a
                pushes, entry = (), None
                if op == _POPPED:
                    queue = queues[b]
                    if queue:       # else raced with another process: rescan
                        if b != scan_order[pid][0]:
                            steals += 1
                        entry = queue.pop()
                elif op == _EXECUTE:
                    entry = b
                if entry is not None:
                    finished = True
                    if entry.__class__ is tuple:
                        cost, pushes = entry
                        t += cost
                    else:
                        pushes = children[entry]
                        hold = first[entry]
                        if hold is None:
                            t += build[entry]
                        elif simple:
                            ln = line[entry]
                            grant = line_free.get(ln, 0.0)
                            if grant < t:
                                grant = t
                            if line_handoff:
                                waiting = line_waiting.get(ln)
                                if waiting is None:
                                    waiting = line_waiting[ln] = []
                                else:
                                    del waiting[:bisect_right(waiting, t)]
                                line_free[ln] = grant + hold + line_handoff * len(waiting)
                                waiting.append(grant)
                            else:
                                line_free[ln] = grant + hold
                            side = is_left[entry]
                            line_acquisitions[side] += 1
                            line_spins[side] += (
                                1 + int((grant - t) // spin_period) if grant > t else 1
                            )
                            # Output tokens are built after the line is released.
                            t = grant + hold + build[entry]
                        else:
                            side = is_left[entry]
                            mrsw = mrsw_lines.get(line[entry])
                            if mrsw is None:
                                mrsw = mrsw_lines[line[entry]] = [0.0, [], 0.0, [], 0, 0.0]
                            # The guard pass: take the guard, read the flag.
                            waiting = mrsw[1]
                            grant = mrsw[0]
                            if grant < t:
                                grant = t
                            del waiting[:bisect_right(waiting, t)]
                            mrsw[0] = grant + (guard_hold + line_handoff * len(waiting))
                            if line_handoff:
                                waiting.append(grant)
                            spins = 1 + int((grant - t) // spin_period) if grant > t else 1
                            after = grant + guard_hold
                            # The flag, unless every user admitted has left by now.
                            flag = mrsw[4] if mrsw[5] > grant else 0
                            want = 1 if side else 2
                            if flag and flag != want:
                                # Busy with the other side: give the line
                                # up and put the task back on a queue.
                                requeues += 1
                                line_requeues[side] += 1
                                t = after + requeue_cost
                                pushes = (entry,)
                                finished = False
                            else:
                                mrsw[4] = want
                                # The modification lock, taken after the guard.
                                waiting = mrsw[3]
                                grant = mrsw[2]
                                if grant < after:
                                    grant = after
                                del waiting[:bisect_right(waiting, after)]
                                mrsw[2] = grant + (hold + line_handoff * len(waiting))
                                if line_handoff:
                                    waiting.append(grant)
                                # The two passes count one free spin between
                                # them, the simple scheme's floor: the paper's
                                # metric is spins before access to the *bucket*.
                                if grant > after:
                                    spins += int((grant - after) // spin_period)
                                t = grant + hold + scan[entry]
                                if t + guard_hold > mrsw[5]:
                                    mrsw[5] = t + guard_hold
                                t += build[entry] + mrsw_overhead
                                line_acquisitions[side] += 1
                                line_spins[side] += spins

            for entry in pushes:
                if hardware_scheduler:
                    # No lock and no wait: one instruction hands
                    # the token to the dispatch unit.
                    t += 1
                    seq += 1
                    heappush(heap, (t, seq, _APPEND, 0, entry))
                    continue
                if pid is None:
                    control_pushes += 1
                    qi = control_pushes % n_queues
                else:
                    qi = pid % n_queues
                grant = queue_free[qi]
                if grant < t:
                    grant = t
                if queue_handoff:
                    waiting = queue_waiting[qi]
                    del waiting[:bisect_right(waiting, t)]
                    queue_free[qi] = grant + queue_push + queue_handoff * len(waiting)
                    waiting.append(grant)
                else:
                    queue_free[qi] = grant + queue_push
                queue_acquisitions += 1
                queue_spins += 1 + int((grant - t) // spin_period) if grant > t else 1
                t = grant + queue_push
                seq += 1
                event = (t, seq, _APPEND, qi, entry)
                if held is None:
                    held = event
                else:
                    heappush(heap, event)

            if op == _CONTROL:
                if a + 1 < len(work):
                    seq += 1
                    heappush(heap, (
                        t + rhs_change_cost if pipelined else t, seq, _CONTROL, a + 1, None,
                    ))
                continue
            if finished:
                remaining -= 1
                if t > last_finish:
                    last_finish = t
                if remaining < 0:
                    raise RuntimeError("simulator accounting bug: remaining < 0")

            # The match-process main loop, step 1: find a task.  After
            # a task this is a poll at the *future* time ``t`` (its
            # last push done) against the queues' *current* contents —
            # a modelling quirk every table is pinned to; keep it.
            if hardware_scheduler:
                if queues[0]:
                    seq += 1
                    heappush(heap, (t + 1, seq, _EXECUTE, pid, queues[0].pop()))
                    continue
            else:
                for qi in scan_order[pid]:
                    if queues[qi]:
                        break
                else:
                    qi = -1
                if qi >= 0:
                    grant = queue_free[qi]
                    if grant < t:
                        grant = t
                    if queue_handoff:
                        waiting = queue_waiting[qi]
                        del waiting[:bisect_right(waiting, t)]
                        queue_free[qi] = grant + queue_pop + queue_handoff * len(waiting)
                        waiting.append(grant)
                    else:
                        queue_free[qi] = grant + queue_pop
                    queue_acquisitions += 1
                    queue_spins += 1 + int((grant - t) // spin_period) if grant > t else 1
                    seq += 1
                    event = (grant + queue_pop, seq, _POPPED, pid, qi)
                    if held is None:
                        held = event
                    else:
                        heappush(heap, event)
                    continue
            if pid not in idle:
                idle.append(pid)
                idle.sort()

        if remaining:
            raise RuntimeError(f"cycle {cycle.index}: {remaining} tasks never ran")
        total_match += last_finish - match_start
        # Footnote 3 (``overlap_cr``): conflict resolution overlaps
        # the tail of match — only the part that cannot be hidden
        # behind the match processes' drain remains on the critical
        # path (modeled as half the CR work exposed).
        clock = max(last_finish, rhs_end) + (cr_cost / 2 if overlap_cr else cr_cost)

    return SimResult(
        options=opts,
        config=config,
        match_instr=total_match,
        total_instr=clock,
        cycles=len(trace.cycles),
        tasks_completed=completed,
        queue_stats=SpinStats(queue_acquisitions, queue_spins),
        line_left=SpinStats(line_acquisitions[1], line_spins[1], line_requeues[1]),
        line_right=SpinStats(line_acquisitions[0], line_spins[0], line_requeues[0]),
        requeues=requeues,
        steals=steals,
    )


def uniprocessor_baseline(
    trace: MatchTrace, lock_scheme: str = "simple", config: MachineConfig = DEFAULT_CONFIG
) -> SimResult:
    """The paper's second column: :data:`UNIPROCESSOR` under ``lock_scheme``."""
    return simulate(trace, lock_scheme=lock_scheme, config=config, **UNIPROCESSOR)
