"""Integration tests for the threaded parallel match engine.

Correctness criterion (DESIGN.md): identical program behaviour to the
sequential matcher under real thread interleavings, for every worker
count, queue count, and lock scheme.
"""

import threading
from collections import Counter

import pytest

from repro.check import check_conflict_set, fold_cs
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.ops5.wme import WMEChange, WorkingMemory
from repro.parallel import hooks
from repro.parallel.engine import ParallelMatcher
from repro.programs import blocks, tourney
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from tests.conftest import FIND_COLORED_BLOCK


def parallel_interp(source: str, **kw) -> Interpreter:
    program = parse_program(source)
    network = ReteNetwork.compile(program)
    matcher = ParallelMatcher(network, **kw)
    return Interpreter(program, matcher=matcher)


class TestAgainstSequential:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_figure_2_1(self, n_workers):
        sequential = Interpreter(FIND_COLORED_BLOCK).run()
        with parallel_interp(FIND_COLORED_BLOCK, n_workers=n_workers) as interp:
            result = interp.run()
        assert sorted(result.output) == sorted(sequential.output)

    @pytest.mark.parametrize("n_queues", [1, 3])
    @pytest.mark.parametrize("lock_scheme", ["simple", "mrsw"])
    def test_blocks_world(self, n_queues, lock_scheme):
        src = blocks.source(
            blocks=(("a", "table"), ("b", "a"), ("c", "b"), ("d", "table")),
            goals=(("c", "d"), ("a", "c")),
        )
        sequential = Interpreter(src).run()
        with parallel_interp(
            src, n_workers=3, n_queues=n_queues, lock_scheme=lock_scheme
        ) as interp:
            result = interp.run()
        assert result.output == sequential.output
        assert result.halted == sequential.halted

    def test_tourney_small(self):
        src = tourney.source(n_teams=6, n_rounds=7)
        sequential = Interpreter(src).run(max_cycles=2000)
        with parallel_interp(src, n_workers=3, n_queues=2) as interp:
            result = interp.run(max_cycles=2000)
        assert result.output[-1] == sequential.output[-1] == "scheduled 15 matches"


JOIN_AND_NEGATION = """
(p both (a ^x <v>) (b ^y <v>) --> (halt))
(p lone (a ^x <v>) - (b ^y <v>) --> (halt))
"""


class TestRetractBeforeAssert:
    def build(self, **kw):
        program = parse_program(JOIN_AND_NEGATION)
        return program, ParallelMatcher(ReteNetwork.compile(program), **kw)

    def test_wme_made_and_removed_in_one_batch_meets_its_delete_first(self):
        """``[+a, +b, -b, +b']``: the ``-b`` runs in the first wave,
        finds nothing to remove and parks on the extra-deletes lists of
        the join and the not-node; the ``+b`` of the second wave
        annihilates against it.  Same conflict set as the batch order."""
        program, matcher = self.build(n_workers=2, n_queues=2)
        wm = WorkingMemory()
        a, b = wm.add("a", {"x": 1}), wm.add("b", {"y": 1})
        old, new = wm.modify(b, {"y": 1})
        batch = [WMEChange(1, a), WMEChange(1, b), WMEChange(-1, old), WMEChange(1, new)]
        got, want = Counter(), Counter()
        try:
            fold_cs(got, matcher.process_changes(batch))
        finally:
            matcher.close()
        oracle = SequentialMatcher(ReteNetwork.compile(program))
        fold_cs(want, oracle.process_changes(batch))
        assert +want == Counter({("both", (a.timetag, new.timetag)): 1})
        assert check_conflict_set(0, got, want) == []
        assert matcher.memory.parked_total > 0
        assert matcher.memory.annihilations == matcher.memory.parked_total
        assert matcher.memory.pending_deletes == 0

    def test_one_quiescence_wait_per_sign(self):
        """A single-sign batch is pushed and awaited once, a mixed batch
        twice: count the control thread's push -> ``quiesce_wait``
        transitions at the yield points.  Workers are held at their pop
        until the control thread is waiting, so a wave can never drain
        before its wait is observed."""
        _program, matcher = self.build(n_workers=2)
        control = threading.current_thread()
        waiting = threading.Event()
        labels = []

        def hook(label, _detail):
            if threading.current_thread() is not control:
                if label == "queue_pop":
                    waiting.wait(5)
                return
            if label == "queue_push":
                waiting.clear()
            elif label == "quiesce_wait":
                waiting.set()
            labels.append(label)

        def waits(batch):
            del labels[:]
            matcher.process_changes(batch)
            return sum(
                now == "quiesce_wait" and before != "quiesce_wait"
                for before, now in zip([None] + labels, labels)
            )

        wm = WorkingMemory()
        a, b = wm.add("a", {"x": 1}), wm.add("b", {"y": 1})
        old, new = wm.modify(a, {"x": 2})
        hooks.install(hook)
        try:
            assert waits([WMEChange(1, a), WMEChange(1, b)]) == 1
            assert waits([WMEChange(-1, old), WMEChange(1, new)]) == 2
            assert waits([WMEChange(-1, new), WMEChange(-1, b)]) == 1
        finally:
            hooks.uninstall()
            waiting.set()
            matcher.close()


class TestEngineMechanics:
    def test_stats_aggregate_across_workers(self):
        with parallel_interp(FIND_COLORED_BLOCK, n_workers=2) as interp:
            interp.run()
            stats = interp.matcher.stats
        assert stats.wme_changes == 8
        assert stats.node_activations > 0

    def test_queue_and_line_lock_stats_exposed(self):
        with parallel_interp(FIND_COLORED_BLOCK, n_workers=2) as interp:
            interp.run()
            assert interp.matcher.queue_lock_stats().acquisitions > 0
            assert interp.matcher.line_lock_stats().acquisitions > 0

    def test_close_idempotent(self):
        interp = parallel_interp(FIND_COLORED_BLOCK, n_workers=1)
        interp.run()
        interp.close()
        interp.close()

    def test_process_changes_after_close_raises(self):
        interp = parallel_interp(FIND_COLORED_BLOCK, n_workers=1)
        interp.close()
        with pytest.raises(RuntimeError):
            interp.matcher.process_changes([])

    def test_requires_at_least_one_worker(self):
        network = ReteNetwork.compile(parse_program("(p r (a) --> (halt))"))
        with pytest.raises(ValueError):
            ParallelMatcher(network, n_workers=0)

    def test_no_pending_conjugate_deletes_after_batches(self):
        with parallel_interp(FIND_COLORED_BLOCK, n_workers=3, n_queues=2) as interp:
            interp.run()
            assert interp.matcher.memory.pending_deletes == 0

    def test_worker_failure_propagates(self):
        # Force a failure by corrupting the network after construction.
        program = parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        network = ReteNetwork.compile(program)
        matcher = ParallelMatcher(network, n_workers=1)
        join = network.two_input_nodes()[0]
        join.tests_fn = 0  # not None, not callable: worker will raise TypeError
        interp = Interpreter(program, matcher=matcher)
        with pytest.raises(RuntimeError):
            interp.add_wme("a", {"x": 1})
            interp.add_wme("b", {"y": 1})


class TestWatchdog:
    def build(self, **kw):
        network = ReteNetwork.compile(parse_program(FIND_COLORED_BLOCK))
        return ParallelMatcher(network, **kw)

    def test_watchdog_enables_holder_tracking_while_attached(self):
        from repro.parallel import locks

        assert not locks.HOLDER_TRACKING
        matcher = self.build(n_workers=1, watchdog_s=600.0)
        try:
            assert matcher.watchdog is not None
            assert locks.HOLDER_TRACKING
        finally:
            matcher.close()
        assert not locks.HOLDER_TRACKING

    def test_probe_reports_queues_taskcount_and_liveness(self):
        matcher = self.build(n_workers=2, n_queues=3, watchdog_s=600.0)
        try:
            sample = matcher._watchdog_probe()
            names = [q["name"] for q in sample["queues"]]
            assert names == ["queue[0]", "queue[1]", "queue[2]", "taskcount"]
            assert sample["extra"]["workers_alive"] == 2
            assert sample["extra"]["failures"] == 0
        finally:
            matcher.close()

    def test_forced_stall_trips_with_schema_valid_bundle(self, tmp_path):
        """The acceptance fixture on the real engine: park a phantom
        task on TaskCount (pending work no worker can ever drain) and
        the watchdog must trip within ~stall_after_s, writing a flight
        snapshot that validates and whose stall names the stuck counter
        -- and a snapshot written after the run still carries it."""
        import json
        import time as _time

        from repro.obs import flight

        path = tmp_path / "stall.json"
        flight.reset()
        flight.set_dump_path(str(path))
        matcher = self.build(n_workers=2, watchdog_s=0.1)
        try:
            matcher.taskcount.increment()  # never decremented: a stall
            deadline = _time.monotonic() + 10.0
            while not matcher.watchdog.tripped and _time.monotonic() < deadline:
                _time.sleep(0.02)
            assert matcher.watchdog.tripped
            assert matcher.watchdog.trips == 1  # one stall per episode
            doc = json.loads(path.read_text())
            assert flight.validate_flight(doc) == []
            assert doc["stall"] == matcher.watchdog.stalls[0]
            assert doc["stall"]["engine"] == "threaded"
            assert doc["stall"]["stuck_queue"] == "taskcount"
        finally:
            matcher.taskcount.decrement()
            matcher.close()
            flight.set_dump_path(None)
        try:
            after = flight.write_snapshot(str(path), "cli")
            assert flight.validate_flight(after) == []
            assert after["stall"]["stuck_queue"] == "taskcount"
        finally:
            flight.reset()

    def test_healthy_run_never_trips(self):
        program = parse_program(FIND_COLORED_BLOCK)
        network = ReteNetwork.compile(program)
        matcher = ParallelMatcher(network, n_workers=2, watchdog_s=0.2)
        interp = Interpreter(program, matcher=matcher)
        try:
            interp.run()
            assert matcher.tasks_done > 0
        finally:
            interp.close()
        assert not matcher.watchdog.tripped
