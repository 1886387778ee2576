"""Unit and lifecycle tests for the multiprocess match backend.

Conformance of full programs across engines lives in
``tests/conformance/``; this module covers what the differential suite
cannot see — process lifecycle, failure propagation from a dead match
process, the fork-requirement guard, and the engine factory wiring.
"""

from __future__ import annotations

import pytest

from repro.engines import ENGINE_NAMES, make_matcher
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.ops5.wme import WME, WMEChange
from repro.parallel.mp import ProcessEngine, ProcessMatcher, mp_supported
from repro.rete.network import ReteNetwork
from tests.conftest import FIND_COLORED_BLOCK

pytestmark = pytest.mark.skipif(
    not mp_supported(), reason="mp engine needs the 'fork' start method"
)


def compiled_network(source: str):
    program = parse_program(source)
    return program, ReteNetwork.compile(program)


class TestLifecycle:
    def test_close_is_idempotent(self):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=2)
        matcher.close()
        matcher.close()

    def test_process_changes_after_close_raises(self):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=1)
        matcher.close()
        change = WMEChange(sign=1, wme=WME.make("block", {"color": "red"}, 1))
        with pytest.raises(RuntimeError, match="closed"):
            matcher.process_changes([change])

    def test_context_manager_closes(self):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        with ProcessMatcher(network, n_workers=2) as matcher:
            procs = matcher._procs
            assert all(p.is_alive() for p in procs)
        for p in procs:
            assert p.exitcode is not None

    def test_rejects_zero_workers(self):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        with pytest.raises(ValueError):
            ProcessMatcher(network, n_workers=0)

    def test_process_engine_alias(self):
        assert ProcessEngine is ProcessMatcher


class TestFailurePropagation:
    def test_dead_worker_surfaces_as_runtime_error(self):
        """Kill a match process mid-flight: the control process must
        raise (with the death noted), never hang in the quiescence
        wait — the cross-process version of the thread-failure tests
        in test_failure_injection.py."""
        program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=2)
        interp = Interpreter(program, matcher=matcher, network=network)
        try:
            interp.startup()
            for proc in matcher._procs:
                proc.terminate()
                proc.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="died"):
                matcher.process_changes(
                    [WMEChange(sign=1, wme=WME.make("block", {}, 99))]
                )
        finally:
            interp.close()

    def test_worker_exception_reports_traceback(self):
        """An exception inside a worker (forced by corrupting the task
        protocol) reaches the control process as a RuntimeError that
        carries the worker's traceback text."""
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=1)
        try:
            with matcher._taskcount.get_lock():
                matcher._taskcount.value += 1
            matcher._inboxes[0].put(("act", -12345, "L", 1, ()))
            with pytest.raises(RuntimeError):
                matcher._wait_quiescent()
        finally:
            matcher.close()

    def test_worker_exception_surfaces_flight_tail(self):
        """A dying worker ships its flight-recorder tail with the error
        message, so the propagated traceback ends with the worker's
        last recorded moments (its start event at minimum)."""
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=1)
        try:
            with matcher._taskcount.get_lock():
                matcher._taskcount.value += 1
            matcher._inboxes[0].put(("act", -12345, "L", 1, ()))
            with pytest.raises(RuntimeError) as excinfo:
                matcher._wait_quiescent()
        finally:
            matcher.close()
        text = str(excinfo.value)
        assert "worker flight recorder (last" in text
        assert "mp.worker.start" in text


class TestEngineFactory:
    def test_engine_names_registry(self):
        assert ENGINE_NAMES == ("sequential", "threaded", "mp", "corgi")

    def test_unknown_engine_raises(self):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        with pytest.raises(ValueError, match="unknown engine"):
            make_matcher("warp", network)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_factory_builds_each_engine(self, engine):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = make_matcher(engine, network, n_workers=1)
        try:
            assert hasattr(matcher, "process_changes")
        finally:
            closer = getattr(matcher, "close", None)
            if closer:
                closer()

    def test_interpreter_rejects_matcher_plus_engine(self):
        program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = make_matcher("sequential", network)
        with pytest.raises(ValueError, match="not both"):
            Interpreter(program, matcher=matcher, engine="mp", network=network)

    def test_interpreter_engine_option_runs(self):
        interp = Interpreter(FIND_COLORED_BLOCK, engine="mp",
                             engine_opts={"n_workers": 2})
        try:
            result = interp.run(max_cycles=100)
            assert result.firings
        finally:
            interp.close()


class TestWatchdogWiring:
    def test_watchdog_attaches_and_probe_reads_shared_counters(self):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=2, watchdog_s=600.0)
        try:
            assert matcher.watchdog is not None
            assert matcher.watchdog.engine == "mp"
            sample = matcher._watchdog_probe()
            assert sample.tasks_done == 0
            assert sample.queues == [("taskcount", 0)]
            assert set(sample.extra["workers"]) == {
                proc.name for proc in matcher._procs
            }
        finally:
            matcher.close()
        assert matcher.watchdog._thread is None  # close() stopped it

    def test_progress_counter_advances_with_work(self):
        program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=2, watchdog_s=600.0)
        interp = Interpreter(program, matcher=matcher, network=network)
        try:
            interp.run(max_cycles=100)
            assert matcher._watchdog_probe().tasks_done > 0
            assert not matcher.watchdog.tripped
        finally:
            interp.close()

    def test_no_watchdog_by_default(self):
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=1)
        try:
            assert matcher.watchdog is None
        finally:
            matcher.close()


class TestMeasurement:
    def test_ipc_counters_present(self):
        interp = Interpreter(FIND_COLORED_BLOCK, engine="mp",
                             engine_opts={"n_workers": 2})
        try:
            interp.run(max_cycles=100)
        finally:
            interp.close()
        counters = interp.matcher.ipc_counters
        assert counters["tasks_local"] > 0
        assert counters["tasks_forwarded"] == counters["ipc_msgs"]

    def test_merged_stats_count_wme_changes_once(self):
        """Alpha work is replicated in every worker but must be counted
        by exactly one, so merged stats equal the sequential run's."""
        seq = Interpreter(FIND_COLORED_BLOCK)
        seq.run(max_cycles=100)
        mp = Interpreter(FIND_COLORED_BLOCK, engine="mp",
                         engine_opts={"n_workers": 3})
        try:
            mp.run(max_cycles=100)
        finally:
            mp.close()
        assert mp.stats.wme_changes == seq.stats.wme_changes
        assert mp.stats.constant_tests == seq.stats.constant_tests


class TestForwardDeadlockAvoidance:
    """Regression for the mutual pipe-full deadlock.

    Two workers forwarding heavily to each other could both block in
    ``put`` with both OS pipes full (observed intermittently as a
    rubik-mp hang: both processes in ``pipe_write``, TaskCount frozen,
    the control process polling forever).  The guarantee that breaks
    the cycle: ``route_child`` drains its own inbox *before* every
    potentially-blocking forward, so a worker's pending write into us
    always completes before we block writing to it.
    """

    def _state(self, pending_msgs):
        import threading

        from repro.parallel.mp.worker import _WorkerState

        class FakeNode:
            node_id = 1
            kind = "join"

            def uses_line(self):
                return True

            def key_for(self, side, token):
                return ("k",)

        class FakeNetwork:
            beta_nodes = [FakeNode()]

        class FakeShard:
            n_lines = 8
            n_workers = 2

            def route(self, node_id, key):
                return 1  # always the peer

        class FakeCount:
            def __init__(self):
                self.value = 0
                self._lock = threading.Lock()

            def get_lock(self):
                return self._lock

        class FakeInbox:
            def __init__(self, msgs):
                self.msgs = list(msgs)

            def empty(self):
                return not self.msgs

            def get(self):
                return self.msgs.pop(0)

        state = _WorkerState(
            0, FakeNetwork(), FakeShard(), FakeInbox(pending_msgs),
            outbox=None, taskcount=FakeCount(),
        )
        return state, FakeNetwork.beta_nodes[0]

    def test_route_child_absorbs_inbox_before_forwarding(self):
        from repro.rete.token import of

        wme = WME.make("block", {"color": "red"}, 1)
        pending = ("act", 1, "left", 1, (wme,))
        state, node = self._state([pending])

        inbox_empty_at_put = []

        class FakePeerQueue:
            def put(_self, msg):
                inbox_empty_at_put.append(state.inbox.empty())

        state._forward_queues = {1: FakePeerQueue()}
        act = (node, "left", 1, of((wme,)))
        state.route_child(act)

        # The forward happened, with our own pipe already drained.
        assert inbox_empty_at_put == [True]
        # The pending peer message was absorbed into local work and its
        # TaskCount unit is held as borrowed; ours was added for the
        # forward.
        assert state.borrowed == 1
        assert len(state.local) == 1
        assert state.taskcount.value == 1

    def test_racing_batch_broadcast_is_deferred_not_fatal(self):
        """A forwarded act can overtake the ("changes", ...) broadcast
        it belongs to (peer and control share the inbox pipe).  The
        mid-drain absorb must park the batch message for the main loop
        instead of treating it as a protocol violation."""
        from repro.rete.token import of

        wme = WME.make("block", {"color": "red"}, 1)
        racing_batch = ("changes", 6, [(1, wme)], None)
        state, node = self._state([racing_batch])

        forwarded = []

        class FakePeerQueue:
            def put(_self, msg):
                forwarded.append(msg)

        state._forward_queues = {1: FakePeerQueue()}
        act = (node, "left", 1, of((wme,)))
        state.route_child(act)

        assert state.deferred == [racing_batch]
        assert state.borrowed == 0
        assert len(forwarded) == 1
