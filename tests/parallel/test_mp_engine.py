"""Unit and lifecycle tests for the multiprocess match backend.

Conformance of full programs across engines lives in
``tests/conformance/``; this module covers what the differential suite
cannot see — process lifecycle, failure propagation from a dead match
process, the fork-requirement guard, and the engine factory wiring.
"""

from __future__ import annotations

import threading

import pytest

from repro.engines import ENGINE_NAMES, make_matcher
from repro.obs import flight
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.ops5.wme import WME, WMEChange
from repro.parallel.mp import ProcessMatcher, mp_supported
from repro.rete.network import ReteNetwork
from tests.conftest import FIND_COLORED_BLOCK

pytestmark = pytest.mark.skipif(
    not mp_supported(), reason="mp engine needs the 'fork' start method"
)


@pytest.fixture(autouse=True)
def clean_flight():
    """Every flush files its workers' flight tails in this process's
    recorder (up to ``REMOTE_TAILS`` of them); keep this module's runs
    from leaking into later tests' ``dump`` replies."""
    yield
    flight.reset()


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

    def test_close_after_a_worker_died_does_not_raise(self):
        """``close`` asks the workers for their last report; one that
        died since the last batch cannot answer, and closing still
        ends cleanly."""
        interp = Interpreter(FIND_COLORED_BLOCK, engine="mp",
                             engine_opts={"n_workers": 2})
        interp.run(max_cycles=100)
        matcher = interp.matcher
        assert matcher._unreported  # close owes the workers' last report
        for proc in matcher._procs:
            proc.terminate()
            proc.join(timeout=5.0)
        interp.close()
        # The alpha work was counted here, so that much stays exact.
        seq = Interpreter(FIND_COLORED_BLOCK)
        seq.run(max_cycles=100)
        assert matcher.stats.wme_changes == seq.stats.wme_changes

    def test_worker_exception_reports_traceback(self):
        """An exception inside a worker (forced by corrupting the task
        protocol) reaches the control process as a RuntimeError that
        carries the worker's traceback text."""
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=1)
        try:
            with matcher._taskcount.get_lock():
                matcher._taskcount.value += 1
            matcher._inboxes[0].put(("acts", 0, [(-12345, "L", 1, ())]))
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
            matcher._inboxes[0].put(("acts", 0, [(-12345, "L", 1, ())]))
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
        assert counters["ipc_msgs"] <= counters["tasks_forwarded"]

    def test_weaver_counters_equal_the_unbatched_transport(self):
        """Batching changes how many messages carry the forwards, never
        which activations run where: on weaver 6x1 (the ``weaver-mp2``
        input) dispatches, forwards and local tasks are the counts the
        one-message-per-forward transport made."""
        from repro.programs import weaver

        interp = Interpreter(weaver.source(grid=6, n_nets=1), engine="mp",
                             engine_opts={"n_workers": 2})
        dispatches = []
        inner = interp.matcher.process_changes
        interp.matcher.process_changes = lambda changes: (
            dispatches.append(1) or inner(changes))
        try:
            interp.run(max_cycles=10_000)
        finally:
            interp.close()
        counters = interp.matcher.ipc_counters
        assert len(dispatches) == 293
        assert counters["tasks_forwarded"] == 2124
        assert counters["tasks_local"] == 28176
        assert counters["ipc_msgs"] < counters["tasks_forwarded"]

    def test_quiescence_is_announced_not_polled(self, monkeypatch):
        """The control process sleeps on the results pipe until a
        worker posts ``quiet``; it never sleeps on a clock."""
        import time

        def no_sleep(_seconds):
            raise AssertionError("process_changes called time.sleep")

        program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=2)
        interp = Interpreter(program, matcher=matcher, network=network)
        monkeypatch.setattr(time, "sleep", no_sleep)
        try:
            result = interp.run(max_cycles=100)
        finally:
            interp.close()
        assert result.firings


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


class TestEqualNumbers:
    """``1`` and ``1.0`` key one bucket, so they must share a line; when
    they did not, the two halves of a join lived on different mp
    workers and 3 workers fired 6 of 20 instantiations."""

    SOURCE = (
        "(p j (a ^x <v>) (b ^x <v>) --> (write <v>))\n"
        "(startup "
        + " ".join(f"(make a ^x {i})" for i in range(20))
        + " "
        + " ".join(f"(make b ^x {i}.0)" for i in range(20))
        + ")\n"
    )

    @staticmethod
    def firings(interp):
        try:
            result = interp.run(max_cycles=1000)
        finally:
            interp.close()
        return [(f.production, f.timetags) for f in result.firings]

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_mp_fires_what_sequential_fires(self, n_workers):
        expected = self.firings(Interpreter(self.SOURCE))
        assert len(expected) == 20
        got = self.firings(Interpreter(self.SOURCE, engine="mp",
                                       engine_opts={"n_workers": n_workers}))
        assert got == expected

class FakeCount:
    """A shared ``Value`` as one process sees it."""

    def __init__(self, value=0):
        self.value = value
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


class FakeOutbox(list):
    put = list.append


class TestOneRoundTrip:
    """A batch is one round trip: the control process routes each root
    once and writes only the inboxes of workers that have roots, and a
    worker's deltas ride its release into the batch whose acts it
    drained."""

    #: One single-CE rule: a change's roots are all non-line, so they
    #: all go to its designated worker (change ``i`` to worker ``i % n``).
    SOURCE = "(literalize tick n)\n(p count (tick ^n <n>) --> (write <n>))\n"

    @staticmethod
    def tap(matcher):
        """Record what the control process writes to each inbox and how
        many bytes it reads back; returns ``(sent, reader)``."""

        class Inbox:
            def __init__(self, wid, queue):
                self.wid, self.queue = wid, queue

            def put(self, msg):
                sent.append((self.wid, msg))
                self.queue.put(msg)

            def close(self):
                self.queue.close()

        class Reader:
            def __init__(self, conn):
                self.conn, self.bytes = conn, 0

            def recv_bytes(self):
                data = self.conn.recv_bytes()
                self.bytes += len(data)
                return data

            def __getattr__(self, name):
                return getattr(self.conn, name)

        sent = []
        matcher._inboxes = [Inbox(wid, q) for wid, q in enumerate(matcher._inboxes)]
        reader = matcher._results._reader = Reader(matcher._results._reader)
        return sent, reader

    @staticmethod
    def tick(n, timetag):
        return WME.make("tick", {"n": n}, timetag)

    def test_roots_on_one_worker_write_one_inbox(self):
        _program, network = compiled_network(self.SOURCE)
        matcher = ProcessMatcher(network, n_workers=2)
        sent, _reader = self.tap(matcher)
        try:
            deltas = matcher.process_changes([WMEChange(sign=1, wme=self.tick(1, 1))])
            assert [(wid, msg[0]) for wid, msg in sent] == [(0, "changes")]
            assert [(p.name, sign) for p, _token, sign in deltas] == [("count", 1)]
            assert matcher._taskcount.value == 0
        finally:
            matcher.close()

    def test_a_batch_without_roots_makes_no_ipc(self):
        _program, network = compiled_network(self.SOURCE)
        matcher = ProcessMatcher(network, n_workers=2)
        sent, reader = self.tap(matcher)
        matcher.timed = True
        try:
            change = WMEChange(sign=1, wme=WME.make("block", {}, 1))
            assert matcher.process_changes([change]) == []
            # Its alpha work was counted here, so the stats need no trip.
            assert matcher.stats.wme_changes == 1
            assert sent == [] and reader.bytes == 0
            assert matcher.ipc_bytes == 0
        finally:
            matcher.close()

    def test_ipc_bytes_bill_what_went_down_each_pipe(self):
        import pickle

        _program, network = compiled_network(self.SOURCE)
        matcher = ProcessMatcher(network, n_workers=2)
        sent, reader = self.tap(matcher)
        matcher.timed = True
        try:
            matcher.process_changes([WMEChange(sign=1, wme=self.tick(1, 1)),
                                     WMEChange(sign=1, wme=self.tick(2, 2))])
            assert sorted(wid for wid, _msg in sent) == [0, 1]
            assert reader.bytes > 0
            assert matcher.ipc_bytes == reader.bytes + sum(
                len(pickle.dumps(msg)) for _wid, msg in sent)
        finally:
            matcher.close()

    def run_worker(self, msgs, units):
        """Worker 1's loop over ``msgs`` (then ``stop``), in this
        process; returns what it posted on the results queue."""
        from repro.parallel.mp.shard import ShardMap
        from repro.parallel.mp.worker import run_worker

        _program, network = compiled_network(self.SOURCE)
        outbox = FakeOutbox()
        taskcount = FakeCount(units)
        run_worker(1, network, ShardMap(64, 2), [None, FakeInbox([*msgs, ("stop",)])],
                   outbox, taskcount, FakeCount())
        assert taskcount.value == 0
        return outbox

    def test_acts_standing_in_for_their_batch_report_into_it(self):
        """A worker with no roots meets batch 7 only through a peer's
        forwarded acts: its report and its ``quiet`` say 7, not the seq
        of the last batch message it saw."""
        token = ((self.tick(1, 1),), (1,))
        outbox = self.run_worker([("acts", 7, [(1, "L", 1, token)])], units=1)
        [(kind, seq, report)] = outbox
        assert (kind, seq) == ("quiet", 7)
        assert report[:5] == ("deltas", 1, 7, [("count", token, 1)], 0)

    def test_acts_overtaking_their_batch_message_report_into_it(self):
        """Acts for batch 7 ahead of the ``changes`` message they belong
        to: the acts' drain reports before releasing its unit, the batch
        message's drain ends the batch with its report merged into
        ``quiet``."""
        first, second = self.tick(1, 1), self.tick(2, 2)
        token = ((first,), (1,))
        outbox = self.run_worker([
            ("acts", 7, [(1, "L", 1, token)]),
            ("changes", 7, [(1, second, [(1, "L")])], None),
        ], units=2)
        [report, (kind, seq, last_report)] = outbox
        assert report[:5] == ("deltas", 1, 7, [("count", token, 1)], 0)
        assert (kind, seq) == ("quiet", 7)
        assert last_report[:5] == (
            "deltas", 1, 7, [("count", ((second,), (2,)), 1)], 0)


class TestForwardDeadlockAvoidance:
    """Regression for the mutual pipe-full deadlock.

    Two workers forwarding heavily to each other could both block in
    ``put`` with both OS pipes full (observed intermittently as a
    rubik-mp hang: both processes in ``pipe_write``, TaskCount frozen,
    the control process waiting forever).  What breaks the cycle:
    ``send`` drains its own inbox *before* every potentially-blocking
    write, so a peer's pending write into us always completes before we
    block writing to it — and a message is small enough to fit in the
    emptied pipe.
    """

    def _state(self, pending_msgs):
        class FakeNode:
            node_id = 1
            kind = "join"

            def uses_line(self):
                return True

            def key_for(self, side, token):
                return ("k",)

        class FakeNetwork:
            beta_nodes = [FakeNode()]

        return self._worker(FakeNetwork(), pending_msgs), FakeNetwork.beta_nodes[0]

    @staticmethod
    def _worker(network, pending_msgs):
        """Worker 0 over ``network``, every line owned by its peer."""
        from repro.parallel.mp.worker import _WorkerState

        class FakeShard:
            n_lines = 8
            n_workers = 2

            def route(self, node_id, key):
                return 1  # always the peer

        state = _WorkerState(
            0, network, FakeShard(), FakeInbox(pending_msgs),
            outbox=FakeOutbox(), taskcount=FakeCount(),
        )
        state.tasks_done = FakeCount()
        return state

    @staticmethod
    def _peer(state, log):
        class FakePeerQueue:
            def put(_self, msg):
                log.append((state.inbox.empty(), msg))

        state._forward_queues = {1: FakePeerQueue()}

    def test_route_child_absorbs_inbox_before_forwarding(self):
        from repro.rete.token import of

        wme = WME.make("block", {"color": "red"}, 1)
        token = of((wme,))
        pending = ("acts", 0, [(1, "left", 1, token)])
        state, node = self._state([pending])
        puts = []
        self._peer(state, puts)

        state.route_children([(node, "left", 1, token)] * 2)
        assert puts == []  # the children wait for the end of the stretch
        state.send(1)

        # One message for both forwards, written with our own pipe
        # already drained.
        assert puts == [(True, ("acts", 0, [(1, "left", 1, token)] * 2))]
        # The pending peer message was absorbed into local work and its
        # TaskCount unit is held as borrowed; ours were added for the
        # forwards, one per task.
        assert state.borrowed == 1
        assert len(state.local) == 1
        assert state.taskcount.value == 2
        assert state.counters == {
            "tasks_local": 0, "tasks_forwarded": 2, "ipc_msgs": 1,
        }

    def test_racing_batch_broadcast_is_deferred_not_fatal(self):
        """Forwarded acts can overtake the ("changes", ...) broadcast
        they belong to (peer and control share the inbox pipe).  The
        mid-drain absorb must park the batch message for the main loop
        instead of treating it as a protocol violation."""
        from repro.rete.token import of

        wme = WME.make("block", {"color": "red"}, 1)
        racing_batch = ("changes", 6, [(1, wme, [(1, "left")])], None)
        state, node = self._state([racing_batch])
        puts = []
        self._peer(state, puts)

        state.route_children([(node, "left", 1, of((wme,)))])
        state.send(1)

        assert state.deferred == [racing_batch]
        assert state.borrowed == 0
        assert len(puts) == 1

    def test_poll_every_wmes_go_at_once(self):
        """A message is capped by the WMEs its tokens carry: when the
        waiting tokens for a peer hold POLL_EVERY WMEs they are sent
        without waiting for the stretch to end."""
        from repro.parallel.mp.worker import POLL_EVERY
        from repro.rete.token import of

        wmes = tuple(WME.make("block", {}, i) for i in range(4))
        state, node = self._state([])
        puts = []
        self._peer(state, puts)

        state.route_children([(node, "left", 1, of(wmes))] * (POLL_EVERY // 4 + 1))
        assert [len(msg[2]) for _empty, msg in puts] == [POLL_EVERY // 4]
        assert len(state.outgoing[1]) == 1

    def test_acts_absorbed_by_the_last_send_run_before_release(self):
        """The end-of-drain send absorbs our inbox first.  Acts taken in
        then must run before the drain returns: releasing their borrowed
        TaskCount units with the tasks still queued would let the count
        reach zero with work pending.  The root is a left token meeting
        a stored right one at the first join, so it emits one child for
        the peer; the absorbed act is a left token at the second join,
        whose right memory is empty."""
        from repro.rete import kernel
        from repro.rete.token import of

        _program, network = compiled_network("(p r (a) (b) (c) --> (halt))")
        first, second = network.two_input_nodes()
        a, b, other = (WME.make(k, {}, t) for k, t in (("a", 1), ("b", 2), ("a", 3)))
        absorbed = of((other, b))
        state = self._worker(network, [("acts", 9, [(second.node_id, "L", 1, absorbed)])])
        assert kernel.drain(state.ctx, [(first, "R", 1, of((b,)))], state.route_children) == 1
        puts = []
        self._peer(state, puts)
        state.taskcount.value = 2  # our batch unit + the peer's forward
        state.seq = 9
        state.local.append((first, "L", 1, of((a,))))

        state.drain()

        assert state.local == []
        assert state.ctx.stats.node_activations == 3
        assert state.memory.left[(second.node_id, ())] == [absorbed]
        assert [msg for _empty, msg in puts] == [
            ("acts", 9, [(second.node_id, "L", 1, of((a, b)))])]
        state.release(1)
        assert state.taskcount.value == 1  # the unit of the child we sent
        assert state.outbox == []
        # The release that reaches zero announces quiescence.
        state.release(1)
        assert state.outbox == [("quiet", 9, None)]


class TestMessageSize:
    def test_rubik_acts_fit_in_a_pipe(self, monkeypatch, tmp_path):
        """The pipe rule on the program with the longest tokens: every
        ``acts`` message rubik forwards pickles to well under the 64 KiB
        a Linux pipe holds."""
        import pickle

        from repro.parallel.mp import worker
        from repro.programs import rubik

        sizes = tmp_path / "sizes"
        send = worker._WorkerState.send

        def measured_send(state, owner):
            message = ("acts", state.seq, state.outgoing[owner])
            with open(sizes, "a") as fh:
                fh.write(f"{len(pickle.dumps(message))}\n")
            send(state, owner)

        # Forked workers inherit the patched class.
        monkeypatch.setattr(worker._WorkerState, "send", measured_send)
        interp = Interpreter(rubik.source(n_moves=2), engine="mp",
                             engine_opts={"n_workers": 2})
        try:
            interp.run(max_cycles=10_000)
        finally:
            interp.close()
        largest = max(int(line) for line in sizes.read_text().split())
        assert largest < 65536 // 4


class TestStress:
    def test_more_workers_than_cores_fire_what_sequential_fires(self):
        """Four match processes (more than a small host's cores) on the
        program that forwards the most.  A lost TaskCount update or a
        ``quiet`` posted with work still queued shows as a hang, a
        different firing trace or a count left above zero."""
        import threading

        from repro.programs import rubik

        source = rubik.source(n_moves=3)
        seq = Interpreter(source).run(max_cycles=10_000)
        interp = Interpreter(source, engine="mp", engine_opts={"n_workers": 4})
        out = {}
        runner = threading.Thread(
            target=lambda: out.update(result=interp.run(max_cycles=10_000)),
            daemon=True,
        )
        try:
            runner.start()
            runner.join(timeout=120)
            assert not runner.is_alive(), "mp run did not finish in 120 s"
            got = out["result"]
            assert [(f.production, f.timetags) for f in got.firings] == [
                (f.production, f.timetags) for f in seq.firings
            ]
            assert interp.matcher._taskcount.value == 0
        finally:
            interp.close()
