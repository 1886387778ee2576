"""SessionCore and Session tests: atomic transactions, budgets,
deadlines, backpressure, and drain."""

import asyncio

import pytest

from repro.ops5.interpreter import TransactionError, WMOp
from repro.serve.limits import BudgetError, ServiceLimits
from repro.serve.session import Busy, Session, SessionCore


def make(entry, **kwargs):
    return SessionCore("s-test", entry, **kwargs)


class TestTransactions:
    def test_budget_zero_is_pure_ingestion(self, counter_entry):
        core = make(counter_entry)
        result = core.transact(
            [WMOp.make("counter", {"n": 0, "limit": 3})], max_cycles=0
        )
        assert result.outcome == "exhausted"  # work waiting, none done
        assert result.cycles == 0
        assert result.firings == []
        assert result.wm_size == 1
        assert len(result.created) == 1

    def test_resumable_slices_reach_halt(self, counter_entry):
        core = make(counter_entry)
        core.transact([WMOp.make("counter", {"n": 0, "limit": 5})], max_cycles=0)
        outcomes = []
        for _ in range(3):
            outcomes.append(core.transact([], max_cycles=2).outcome)
        assert outcomes == ["exhausted", "exhausted", "halted"]
        assert core.interp.output[-1] == "done 5"

    def test_created_timetags_address_later_ops(self, counter_entry):
        core = make(counter_entry)
        r1 = core.transact(
            [WMOp.make("counter", {"n": 0, "limit": 9})], max_cycles=0
        )
        tag = r1.created[0]
        r2 = core.transact([WMOp.modify(tag, {"n": 9})], max_cycles=1)
        assert r2.outcome == "halted"

    def test_atomicity_bad_op_mutates_nothing(self, counter_entry):
        core = make(counter_entry)
        with pytest.raises(TransactionError):
            core.transact(
                [
                    WMOp.make("counter", {"n": 0, "limit": 3}),
                    WMOp.remove(999),  # no such timetag
                ],
                max_cycles=5,
            )
        assert core.wm_size == 0
        assert core.counters.transactions == 0
        assert core.counters.errors == 1

    def test_double_remove_in_one_txn_rejected(self, counter_entry):
        core = make(counter_entry)
        tag = core.transact(
            [WMOp.make("counter", {"n": 0, "limit": 3})], max_cycles=0
        ).created[0]
        with pytest.raises(TransactionError):
            core.transact([WMOp.remove(tag), WMOp.remove(tag)], max_cycles=0)
        assert core.wm_size == 1  # first remove rolled back too


class TestBudgets:
    def test_over_cap_cycles_rejected_not_clamped(self, counter_entry):
        limits = ServiceLimits(max_cycles_per_txn=10, default_cycles_per_txn=5)
        core = make(counter_entry, limits=limits)
        with pytest.raises(BudgetError):
            core.transact([], max_cycles=11)
        assert core.counters.rejected_budget == 1
        assert core.counters.transactions == 0

    def test_over_cap_deadline_rejected(self, counter_entry):
        core = make(counter_entry)
        with pytest.raises(BudgetError):
            core.transact([], deadline_ms=10 * 60 * 1000)

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf"), 0, -1.0])
    def test_a_deadline_that_would_never_fire_is_rejected(self, deadline_ms):
        """NaN compares false to the floor *and* to the cap, and
        ``monotonic() >= nan`` is never true: resolved as asked, it ran
        the transaction outside the documented cap."""
        limits = ServiceLimits()
        with pytest.raises(BudgetError):
            limits.resolve_deadline_ms(deadline_ms)
        assert limits.resolve_deadline_ms(None) == limits.default_deadline_ms
        assert limits.resolve_deadline_ms(limits.max_deadline_ms) == limits.max_deadline_ms

    def test_negative_budget_rejected(self, counter_entry):
        core = make(counter_entry)
        with pytest.raises(BudgetError):
            core.transact([], max_cycles=-1)

    def test_too_many_ops_rejected(self, counter_entry):
        limits = ServiceLimits(max_ops_per_txn=2)
        core = make(counter_entry, limits=limits)
        ops = [WMOp.make("counter", {"n": i, "limit": 0}) for i in range(3)]
        with pytest.raises(BudgetError):
            core.transact(ops, max_cycles=0)
        assert core.wm_size == 0

    def test_deadline_stops_a_spinner(self, spinner_entry):
        core = make(spinner_entry)
        core.transact([WMOp.make("spin", {"n": 0})], max_cycles=0)
        result = core.transact([], max_cycles=10_000, deadline_ms=1)
        assert result.outcome == "deadline"
        assert result.cycles < 10_000

    def test_budget_isolates_a_spinner(self, spinner_entry):
        core = make(spinner_entry)
        core.transact([WMOp.make("spin", {"n": 0})], max_cycles=0)
        result = core.transact([], max_cycles=7)
        assert result.outcome == "exhausted"
        assert result.cycles == 7


class TestCounters:
    def test_counters_accumulate(self, counter_entry):
        core = make(counter_entry)
        core.transact([WMOp.make("counter", {"n": 0, "limit": 2})], max_cycles=0)
        core.transact([], max_cycles=100)
        snap = core.counters.snapshot()
        assert snap["transactions"] == 2
        assert snap["cycles"] == 3  # two ticks + done
        assert snap["firings"] == 3
        assert snap["wm_ops"] == 1
        assert snap["outcomes"] == {"exhausted": 1, "halted": 1}
        assert snap["latency"]["count"] == 2


class TestAsyncSession:
    def test_full_inbox_raises_busy_with_retry_after(self, counter_entry):
        limits = ServiceLimits(inbox_depth=2, retry_after_ms=25.0)

        async def scenario():
            session = Session(SessionCore("s1", counter_entry, limits=limits))
            # No worker started: submissions queue up until the inbox
            # is full, then backpressure kicks in.
            futs = [session.submit([], max_cycles=0) for _ in range(2)]
            with pytest.raises(Busy) as exc:
                session.submit([], max_cycles=0)
            assert exc.value.retry_after_ms == 25.0
            assert session.core.counters.rejected_busy == 1
            assert session.queue_depth == 2
            # Start the worker: queued work drains and futures resolve.
            session.start()
            results = await asyncio.gather(*futs)
            assert [r.outcome for r in results] == ["quiescent", "quiescent"]
            await session.drain()

        asyncio.run(scenario())

    def test_submit_order_is_execution_order(self, counter_entry):
        async def scenario():
            session = Session(SessionCore("s1", counter_entry))
            session.start()
            f1 = session.submit(
                [WMOp.make("counter", {"n": 0, "limit": 2})], max_cycles=0
            )
            f2 = session.submit([], max_cycles=100)
            r1, r2 = await asyncio.gather(f1, f2)
            assert r1.outcome == "exhausted"
            assert r2.outcome == "halted"
            await session.drain()

        asyncio.run(scenario())

    def test_drain_finishes_queued_work(self, counter_entry):
        async def scenario():
            session = Session(SessionCore("s1", counter_entry))
            futs = [
                session.submit(
                    [WMOp.make("counter", {"n": 0, "limit": 1})], max_cycles=0
                ),
                session.submit([], max_cycles=50),
            ]
            session.start()
            await session.drain()
            assert all(f.done() for f in futs)
            assert (await futs[1]).outcome == "halted"
            with pytest.raises(Busy):
                session.submit([], max_cycles=0)  # closed for business
            # ... and counted like a full inbox's bounce.
            assert session.core.counters.rejected_busy == 1

        asyncio.run(scenario())

    def test_failed_txn_resolves_future_and_keeps_worker(self, counter_entry):
        async def scenario():
            session = Session(SessionCore("s1", counter_entry))
            session.start()
            bad = session.submit([WMOp.remove(42)], max_cycles=0)
            good = session.submit([], max_cycles=0)
            with pytest.raises(TransactionError):
                await bad
            assert (await good).outcome == "quiescent"
            await session.drain()

        asyncio.run(scenario())
