"""The DES lock model, pinned through replays of hand-built traces.

``simulate`` carries the spin locks in its own locals: a
queue lock or simple line lock is a free-at time plus the grants still
waiting, an MRSW line a guard pair, a mod pair, a flag and its users'
latest exit (``repro.simulator.locks`` describes the model).  Each test
here replays a one-change trace whose tasks are all released at time 0
on a machine where nothing but the line costs anything, so the lock
arithmetic is the whole of ``match_instr`` and of the line counters.
With ``n`` first-level tasks and ``n`` match processes the tasks start
together, the highest tid first.
"""

from repro.rete.trace import ChangeRecord, CycleRecord, MatchTrace, TaskRecord
from repro.simulator.engine import simulate
from repro.simulator.locks import SpinStats
from repro.simulator.machine import DEFAULT_CONFIG

#: Only the line locks cost anything: a join's simple-lock hold is
#: ``join_base``; under MRSW the mod lock holds ``update_base`` and the
#: search after it ``join_base - update_base``.
BARE = DEFAULT_CONFIG.with_overrides(
    change_dispatch=0, const_test=0, alpha_group_overhead=0,
    queue_push=0, queue_pop=0, poll_delay=0,
    rhs_change_cost=0, cr_base=0, cr_per_delta=0,
    join_base=50, update_base=20, per_opp_examined=0, per_same_examined=0,
    per_child_build=0, not_extra=0, line_lock_hold_overhead=0,
    ttas_handoff=0, spin_period=8,
    mrsw_guard_hold=4, mrsw_overhead=12, requeue_cost=18,
)
LINE = 5


def trace_of(*tasks):
    """One cycle, one WM change; each task ``(side, line, parent)`` a
    join, with as many children as name it their parent."""
    change = ChangeRecord(seq=0, n_const_tests=0, n_alpha_hits=1)
    trace = MatchTrace(cycles=[CycleRecord(0, "p", 1, changes=[change])])
    for tid, (side, line, parent) in enumerate(tasks):
        n_children = sum(1 for task in tasks if task[2] == tid)
        trace.tasks.append(TaskRecord(tid, parent, "join", 1, side, 1, line, 0, 0, n_children, 0))
        if parent < 0:
            change.first_level.append(tid)
    return trace


def replay(trace, scheme="simple", n_match=None, **overrides):
    config = BARE.with_overrides(**overrides)
    return simulate(trace, n_match or len(trace.tasks), 1, scheme, config=config)


def contenders(n, side="L"):
    return trace_of(*[(side, LINE, -1)] * n)


class TestSimLock:
    """The spin lock: request-time FIFO grants, the wait turned into
    spins (one per ``spin_period``, floor 1), the TTAS handoff storm."""

    def test_uncontended_grant_is_immediate(self):
        result = replay(contenders(1))
        assert result.match_instr == 50            # granted at 0, held 50
        assert (result.line_left.acquisitions, result.line_left.spins) == (1, 1)

    def test_fifo_wait(self):
        # Three requests at 0: granted at 0, 50 and 100, in turn.
        result = replay(contenders(3))
        assert result.match_instr == 150
        assert result.line_left.spins == 1 + (1 + 50 // 8) + (1 + 100 // 8)

    def test_spin_floor_is_one(self):
        for scheme in ("simple", "mrsw"):
            result = replay(contenders(1), scheme, join_base=21)
            assert (result.line_left.acquisitions, result.line_left.spins) == (1, 1)

    def test_stats_accumulate(self):
        result = replay(trace_of(("L", LINE, -1), ("L", LINE, -1), ("R", 6, -1)), join_base=10)
        # The second left request waited 10: 1 + 10 // 8 spins.
        assert result.line_left == SpinStats(acquisitions=2, spins=3)
        assert result.line_right == SpinStats(acquisitions=1, spins=1)

    def test_handoff_storm_extends_hold(self):
        # The fourth grant comes after the third hold *plus* one
        # handoff per grant still waiting when the third was asked for.
        calm = replay(contenders(4))
        stormy = replay(contenders(4), ttas_handoff=10)
        assert calm.match_instr == 200
        assert stormy.match_instr == 200 + 10

    def test_pending_expire(self):
        # The child asks for the line long after its parent's grant:
        # nothing is still waiting, so no handoff penalty and one spin.
        parent_child = trace_of(("L", LINE, -1), ("L", LINE, 0))
        for handoff in (0, 10):
            result = replay(parent_child, n_match=1, per_child_build=1000, ttas_handoff=handoff)
            assert result.match_instr == 50 + 1000 + 50
            assert result.line_left.spins == 2


class TestSimMRSWLine:
    """The MRSW line: a guard pass reads the Unused/Left/Right flag,
    same-side users search together, the opposite side is requeued until
    the last user has left, and the mod lock serialises the updates."""

    def test_first_user_admitted(self):
        result = replay(contenders(1), "mrsw")
        # guard 4, update 20 under the mod lock, search 30, overhead 12
        assert result.match_instr == 4 + 20 + 30 + 12
        assert (result.requeues, result.line_left.acquisitions) == (0, 1)

    def test_same_side_concurrent(self):
        mrsw = replay(contenders(2), "mrsw")
        simple = replay(contenders(2))
        # The second enters after the first's guard pass (8), waits for
        # its update (mod free at 24), then searches alongside it.
        assert mrsw.match_instr == 24 + 20 + 30 + 12 < simple.match_instr == 100
        assert (mrsw.requeues, mrsw.line_left.acquisitions) == (0, 2)

    def test_opposite_side_rejected_while_busy(self):
        # The left user holds the line until 58.  The right task asks at
        # 0, is turned away and requeued (its push waits on the queue
        # lock the left process took at 66 to look for work), and is
        # admitted at 66, the flag cleared.
        result = replay(trace_of(("R", LINE, -1), ("L", LINE, -1)), "mrsw")
        assert result.requeues == result.line_right.requeues == 1
        assert result.line_left.requeues == 0 and result.line_right.acquisitions == 1
        assert result.match_instr == 66 + 4 + 20 + 30 + 12

    def test_flag_clears_after_exits(self):
        # The right-side child arrives at 166, after its left-side
        # parent left the line (58): admitted at once.
        result = replay(trace_of(("L", LINE, -1), ("R", LINE, 0)), "mrsw",
                        n_match=1, per_child_build=100)
        assert result.requeues == 0
        assert result.line_right.acquisitions == 1
        assert result.match_instr == 166 + 4 + 20 + 30 + 12

    def test_mod_lock_serializes(self):
        # All update, no search: the second update starts when the
        # first ends (104), not when its guard pass does (8).
        result = replay(contenders(2), "mrsw", join_base=100, update_base=100)
        assert result.match_instr == 104 + 100 + 12
        assert result.line_left.spins == 1 + (1 + (104 - 8) // 8)
