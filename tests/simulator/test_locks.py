"""Unit tests for the DES lock models."""

import pytest

from repro.simulator.locks import (
    LEFT_IN_USE,
    RIGHT_IN_USE,
    UNUSED,
    SimLock,
    SimMRSWLine,
    SpinStats,
)


class TestSimLock:
    def test_uncontended_grant_is_immediate(self):
        lock = SimLock(spin_period=8)
        grant, spins = lock.request(100.0, hold=10)
        assert grant == 100.0
        assert spins == 1

    def test_fifo_wait(self):
        lock = SimLock(spin_period=8)
        lock.request(100.0, hold=50)
        grant, spins = lock.request(110.0, hold=10)
        assert grant == 150.0
        assert spins == 1 + int(40 // 8)

    def test_spin_floor_is_one(self):
        lock = SimLock(spin_period=8)
        _, spins = lock.request(0.0, hold=1)
        assert spins == 1

    def test_stats_accumulate(self):
        stats = SpinStats()
        lock = SimLock(spin_period=8, stats=stats)
        lock.request(0, 10)
        lock.request(0, 10)
        assert stats.acquisitions == 2
        assert stats.spins >= 3  # second waited 10 -> 1 + 10//8 = 2

    def test_handoff_storm_extends_hold(self):
        calm = SimLock(spin_period=8, handoff=0)
        stormy = SimLock(spin_period=8, handoff=10)
        for lock in (calm, stormy):
            lock.request(0.0, hold=100)    # holder
            lock.request(1.0, hold=100)    # waiter 1
            lock.request(2.0, hold=100)    # waiter 2 (1 pending ahead)
        # With handoff, waiter 2's grant is pushed later than without.
        assert stormy.free_at > calm.free_at

    def test_pending_expire(self):
        lock = SimLock(spin_period=8, handoff=10)
        lock.request(0.0, hold=5)
        # Far in the future: no pending waiters remain, no penalty.
        grant, spins = lock.request(1000.0, hold=5)
        assert grant == 1000.0
        assert spins == 1


class TestSimMRSWLine:
    def make(self):
        return SimMRSWLine(8, SpinStats(), SpinStats())

    def test_first_user_admitted(self):
        line = self.make()
        after, admitted = line.try_enter(10.0, "L", guard_hold=4)
        assert admitted
        assert after == 14.0
        assert line.flag == LEFT_IN_USE

    def test_same_side_concurrent(self):
        line = self.make()
        line.try_enter(10.0, "L", 4)
        line.register_exit(100.0, 4)
        _, admitted = line.try_enter(20.0, "L", 4)
        assert admitted

    def test_opposite_side_rejected_while_busy(self):
        line = self.make()
        line.try_enter(10.0, "L", 4)
        line.register_exit(100.0, 4)
        _, admitted = line.try_enter(20.0, "R", 4)
        assert not admitted
        assert line.guard.stats.requeues == 1

    def test_flag_clears_after_exits(self):
        line = self.make()
        line.try_enter(10.0, "L", 4)
        line.register_exit(50.0, 4)
        _, admitted = line.try_enter(200.0, "R", 4)
        assert admitted
        assert line.flag == RIGHT_IN_USE

    def test_mod_lock_serializes(self):
        line = self.make()
        g1, _ = line.mod.request(0.0, 30)
        g2, _ = line.mod.request(5.0, 30)
        assert g2 == 30.0
