"""Unit and lifecycle tests for the multiprocess match backend.

Conformance of full programs across engines lives in
``tests/conformance/``; this module covers what the differential suite
cannot see — process lifecycle, failure propagation from a dead match
process, the fork-requirement guard, and the engine factory wiring.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import pytest

from repro import programs
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

    @staticmethod
    def post_bad_node(matcher):
        """A ``changes`` message naming a node id no network has: the
        worker's lookup raises, and the batch owes one reply."""
        wme = WME.make("block", {"color": "red"}, 1)
        matcher._owed = 1
        matcher._inboxes[0].put(("changes", 0, [(1, wme, [(-12345, "L")])], None))

    def test_worker_exception_reports_traceback(self):
        """An exception inside a worker (forced by corrupting the batch
        protocol) reaches the control process as a RuntimeError that
        carries the worker's traceback text."""
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=1)
        try:
            self.post_bad_node(matcher)
            with pytest.raises(RuntimeError, match="KeyError: -12345"):
                matcher._collect()
        finally:
            matcher.close()

    def test_worker_exception_surfaces_flight_tail(self):
        """A dying worker ships its flight-recorder tail with the error
        message, so the propagated traceback ends with the worker's
        last recorded moments (its start event at minimum)."""
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=1)
        try:
            self.post_bad_node(matcher)
            with pytest.raises(RuntimeError) as excinfo:
                matcher._collect()
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
            assert sample.queues == [("replies_owed", 0)]
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
        assert list(counters) == ["tasks_local"]
        assert counters["tasks_local"] == interp.matcher.stats.node_activations > 0

    def test_weaver_counters_equal_the_unbatched_transport(self):
        """On weaver 6x1 (the ``weaver-mp2`` input) the workers run
        exactly the sequential engine's 28 110 activations, in 293
        dispatches: ownership by production runs each activation once,
        where its production lives."""
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
        assert counters == {"tasks_local": 28110}

    def test_quiescence_is_announced_not_polled(self, monkeypatch):
        """The control process sleeps on the results pipe until every
        worker it wrote to has replied; it never sleeps on a clock."""
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
        """Alpha work runs once, in the control process, so merged
        stats count each change once, as the sequential run does."""
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
    """``1`` and ``1.0`` key one bucket, so a join of the two fires on
    mp what it fires sequentially (3 line-owning workers once fired 6
    of 20 instantiations)."""

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

    def get(self):
        return self.msgs.pop(0)


class FakeOutbox(list):
    put = list.append


class TestOneRoundTrip:
    """A batch is one round trip: the control process sends each root
    once, to the worker owning the root's production, and writes only
    the inboxes of workers that have roots; each of them replies once."""

    #: One single-CE rule: production 0, so every root goes to worker 0.
    SOURCE = "(literalize tick n)\n(p count (tick ^n <n>) --> (write <n>))\n"
    #: The same rule twice: production 1 belongs to worker 1, so each
    #: change has roots for both workers.
    TWO = SOURCE + "(p echo (tick ^n <n>) --> (write <n>))\n"

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
            assert matcher._owed == 0
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

        _program, network = compiled_network(self.TWO)
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

    def test_a_worker_drains_each_change_and_replies_once(self):
        """Worker 1's loop, in this process, over a batch of two changes
        for production 1: one ``deltas`` reply carrying both changes'
        conflict-set deltas, in change order."""
        from repro.parallel.mp.worker import run_worker

        _program, network = compiled_network(self.TWO)
        echo = network.terminals["echo"].node_id
        first, second = self.tick(1, 1), self.tick(2, 2)
        batch = [(1, first, [(echo, "L")]), (1, second, [(echo, "L")])]
        outbox, tasks_done = FakeOutbox(), FakeCount()
        run_worker(1, network, FakeInbox([("changes", 7, batch, None), ("stop",)]),
                   outbox, tasks_done)
        [(kind, wid, seq, deltas, _ship)] = outbox
        assert (kind, wid, seq) == ("deltas", 1, 7)
        assert deltas == [("echo", ((first,), (1,)), 1), ("echo", ((second,), (2,)), 1)]
        assert tasks_done.value == 2


@functools.lru_cache(maxsize=None)
def sequential_run(name):
    """A builtin's sequential firing list and ``MatchStats`` fields."""
    interp = Interpreter(programs.read(name))
    result = interp.run(max_cycles=10_000)
    return firing_list(result), dataclasses.asdict(interp.stats)


def firing_list(result):
    return [(f.production, f.timetags) for f in result.firings]


@pytest.mark.parametrize("n_workers", [2, 3])
@pytest.mark.parametrize("name", programs.__all__)
def test_merged_stats_and_firings_equal_sequential(name, n_workers):
    """Each production's activations run in its owner in the sequential
    engine's order, so mp's firing list and every field of its merged
    ``MatchStats`` are the sequential engine's, on every builtin."""
    interp = Interpreter(programs.read(name), engine="mp",
                         engine_opts={"n_workers": n_workers})
    try:
        got = interp.run(max_cycles=10_000)
        stats = interp.stats
    finally:
        interp.close()
    assert interp.conflict_set._strict
    assert (firing_list(got), dataclasses.asdict(stats)) == sequential_run(name)


class TestStress:
    def test_more_workers_than_cores_fire_what_sequential_fires(self):
        """Four match processes (more than a small host's cores) on
        rubik, whose 70 rules spread over all four.  A lost reply or
        one counted twice shows as a hang, a different firing trace or
        a reply still owed."""
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
            assert interp.matcher._owed == 0
        finally:
            interp.close()
