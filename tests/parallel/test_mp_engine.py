"""Unit and lifecycle tests for the multiprocess match backend.

Conformance of full programs across engines lives in
``tests/conformance/``; this module covers what the differential suite
cannot see — process lifecycle, failure propagation from a dead match
process, the fork-requirement guard, and the engine factory wiring.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle

import pytest

from repro import programs
from repro.engines import ENGINE_NAMES, make_matcher
from repro.obs import flight
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.ops5.wme import WME, WMEChange
from repro.parallel.mp import ProcessMatcher, mp_supported
from repro.rete.network import ReteNetwork
from tests.conftest import FIND_COLORED_BLOCK, SPREAD

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
        interp = Interpreter(SPREAD, engine="mp", engine_opts={"n_workers": 2})
        interp.run(max_cycles=100)
        matcher = interp.matcher
        assert matcher._unreported  # close owes match-1's last report
        for proc in matcher._procs:
            proc.terminate()
            proc.join(timeout=5.0)
        interp.close()
        # The alpha work was counted here, so that much stays exact.
        seq = Interpreter(SPREAD)
        seq.run(max_cycles=100)
        assert matcher.stats.wme_changes == seq.stats.wme_changes

    def test_a_worker_killed_between_batches_fails_the_next_post(self):
        """Forked worker match-1 is SIGKILLed while idle: the next
        batch's write to its pipe is the typed error naming it, with its
        last shipped tail, and the watchdog never trips."""
        import os
        import signal
        import time

        _program, network = compiled_network(TestOneRoundTrip.TWO)
        matcher = ProcessMatcher(network, n_workers=2, watchdog_s=2.0)
        tick = TestOneRoundTrip.tick
        try:
            assert matcher.process_changes([WMEChange(1, tick(1, 1))])
            victim = matcher._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            t0 = time.monotonic()
            with pytest.raises(RuntimeError) as exc:
                matcher.process_changes([WMEChange(1, tick(2, 2))])
            assert time.monotonic() - t0 < 5.0
        finally:
            matcher.close()
        text = str(exc.value)
        assert "match process match-1 died (exit -9)" in text
        assert "mp.worker.batch" in text
        assert matcher.watchdog.trips == 0

    @staticmethod
    def post_bad_node(matcher):
        """A ``changes`` message to match-1 naming an alpha id no network
        has: the worker's lookup raises, and the batch owes one reply."""
        wme = WME.make("block", {"color": "red"}, 1)
        matcher._owed = 1
        matcher._post(1, ("changes", 0, [(1, wme, [-12345])], None))

    def test_worker_exception_reports_traceback(self):
        """An exception inside a worker (forced by corrupting the batch
        protocol) reaches the control process as a RuntimeError that
        carries the worker's traceback text."""
        _program, network = compiled_network(FIND_COLORED_BLOCK)
        matcher = ProcessMatcher(network, n_workers=2)
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
        matcher = ProcessMatcher(network, n_workers=2)
        try:
            self.post_bad_node(matcher)
            with pytest.raises(RuntimeError) as excinfo:
                matcher._collect()
        finally:
            matcher.close()
        text = str(excinfo.value)
        assert "worker flight recorder (last" in text
        assert "mp.worker.start" in text


class TestMatcherAccounting:
    """``n_workers`` counts matchers.  Matcher 0 is the control process,
    which drains its own share; the other ``k - 1`` are forked, named
    ``match-1 ...``.  The watchdog's ``tasks_done`` has one slot per
    matcher, and the stats sum all ``k`` shares."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_n_workers_counts_matchers(self, k):
        source = programs.read("blocks")
        seq = Interpreter(source)
        seq.run(max_cycles=10_000)
        program, network = compiled_network(source)
        matcher = ProcessMatcher(network, n_workers=k, watchdog_s=600.0)
        interp = Interpreter(program, matcher=matcher, network=network)
        try:
            assert [p.name for p in matcher._procs] == [
                f"match-{wid}" for wid in range(1, k)]
            assert all(p.is_alive() and p.pid != os.getpid() for p in matcher._procs)
            interp.run(max_cycles=10_000)
            slots = list(matcher._tasks_done)
            assert len(slots) == k and all(slots)
            # Slot 0 is written here: the control process's own share.
            assert slots[0] == matcher._share.ctx.stats.node_activations
            assert matcher._watchdog_probe()["tasks_done"] == sum(slots)
            assert dataclasses.asdict(matcher.stats) == dataclasses.asdict(seq.stats)
            assert matcher.ipc_counters["tasks_local"] == (
                seq.stats.node_activations) == sum(slots)
        finally:
            interp.close()

    def test_a_raise_in_the_control_drain_leaves_no_worker_running(self):
        """Matcher 0's drain fails while the forked workers drain the
        same batch: the error reaches the caller as it is, and after
        ``close`` no worker is left running."""
        _program, network = compiled_network(TestOneRoundTrip.THREE)
        matcher = ProcessMatcher(network, n_workers=3)
        procs = list(matcher._procs)
        matcher._share.roots = {}  # every alpha id lookup in its drain raises
        change = WMEChange(sign=1, wme=TestOneRoundTrip.tick(1, 1))
        try:
            with pytest.raises(KeyError):
                matcher.process_changes([change])
        finally:
            matcher.close()
        assert len(procs) == 2
        assert all(p.exitcode is not None for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            matcher.process_changes([change])


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
            assert sample["tasks_done"] == 0
            assert sample["queues"] == [{"name": "replies_owed", "depth": 0}]
            assert set(sample["extra"]["workers"]) == {
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
            assert matcher._watchdog_probe()["tasks_done"] > 0
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

class FakeConn:
    """A worker's end of its pipe as the worker sees it: ``msgs`` to
    receive, and what it sent, unpickled."""

    def __init__(self, msgs):
        self.msgs = [pickle.dumps(msg) for msg in msgs]
        self.sent = []

    def recv_bytes(self):
        return self.msgs.pop(0)

    def send_bytes(self, data):
        self.sent.append(pickle.loads(data))


class TestOneRoundTrip:
    """A batch is one round trip: the control process sends each root
    once, to the worker owning the root's production, and writes only
    the pipes of forked workers that have roots; each of them replies
    once.  Matcher 0's roots never leave the control process."""

    #: One single-CE rule: production 0, so every root is matcher 0's.
    SOURCE = "(literalize tick n)\n(p count (tick ^n <n>) --> (write <n>))\n"
    #: The same rule twice: production 1 belongs to matcher 1, so each
    #: change has roots for matcher 0 and for forked worker 1.
    TWO = SOURCE + "(p echo (tick ^n <n>) --> (write <n>))\n"
    #: Three times: at three matchers, roots for each of them.
    THREE = TWO + "(p again (tick ^n <n>) --> (write <n>))\n"

    @staticmethod
    def tap(matcher):
        """Record what the control process writes down each pipe, as
        ``(wid, message, bytes)``, and what it reads back, as
        ``(wid, bytes)``; returns ``(sent, received)``."""

        class Conn:
            def __init__(self, wid, conn):
                self.wid, self.conn = wid, conn

            def send_bytes(self, data):
                sent.append((self.wid, pickle.loads(data), data))
                self.conn.send_bytes(data)

            def recv_bytes(self):
                data = self.conn.recv_bytes()
                received.append((self.wid, data))
                return data

            def __getattr__(self, name):
                return getattr(self.conn, name)

        sent, received = [], []
        matcher._conns = [Conn(wid, conn) for wid, conn in enumerate(matcher._conns, 1)]
        return sent, received

    @staticmethod
    def tick(n, timetag):
        return WME.make("tick", {"n": n}, timetag)

    def test_roots_on_one_worker_write_one_inbox(self):
        _program, network = compiled_network(self.TWO)
        matcher = ProcessMatcher(network, n_workers=3)
        sent, _received = self.tap(matcher)
        try:
            deltas = matcher.process_changes([WMEChange(sign=1, wme=self.tick(1, 1))])
            assert [(wid, msg[0]) for wid, msg, _data in sent] == [(1, "changes")]
            assert sorted((p.name, sign) for p, _token, sign in deltas) == [
                ("count", 1), ("echo", 1)]
            assert matcher._owed == 0
        finally:
            matcher.close()

    def test_a_batch_without_roots_makes_no_ipc(self):
        _program, network = compiled_network(self.SOURCE)
        matcher = ProcessMatcher(network, n_workers=2)
        sent, received = self.tap(matcher)
        matcher.timed = True
        try:
            change = WMEChange(sign=1, wme=WME.make("block", {}, 1))
            assert matcher.process_changes([change]) == []
            # Its alpha work was counted here, so the stats need no trip.
            assert matcher.stats.wme_changes == 1
            assert sent == [] and received == []
            assert matcher.ipc_bytes == 0
        finally:
            matcher.close()

    def test_ipc_bytes_bill_what_went_down_each_pipe(self):
        _program, network = compiled_network(self.THREE)
        matcher = ProcessMatcher(network, n_workers=3)
        sent, received = self.tap(matcher)
        matcher.timed = True
        try:
            matcher.process_changes([WMEChange(sign=1, wme=self.tick(1, 1)),
                                     WMEChange(sign=1, wme=self.tick(2, 2))])
            assert sorted(wid for wid, _msg, _data in sent) == [1, 2]
            assert sorted(wid for wid, _data in received) == [1, 2]
            assert matcher.ipc_bytes == sum(
                len(data) for *_rest, data in sent + received)
        finally:
            matcher.close()

    def test_a_worker_drains_each_change_and_replies_once(self):
        """Worker 1's loop, in this process, over a batch of two changes
        for production 1: one ``deltas`` reply carrying both changes'
        conflict-set deltas as timetags, in change order."""
        from repro.parallel.mp.worker import root_tables, run_worker

        _program, network = compiled_network(self.TWO)
        [tick] = network.alpha_terminals
        first, second = self.tick(1, 1), self.tick(2, 2)
        batch = [(1, first, [tick.alpha_id]), (1, second, [tick.alpha_id])]
        conn, tasks_done = FakeConn([("changes", 7, batch, None), ("stop",)]), [0, 0]
        run_worker(1, root_tables(network, 2)[1], conn, tasks_done)
        [(kind, seq, deltas, _flight)] = conn.sent
        assert (kind, seq) == ("deltas", 7)
        assert deltas == [("echo", (1,), 1), ("echo", (2,), 1)]
        assert tasks_done == [0, 2]


class TestWire:
    """What crosses a pipe: a WME goes down once per worker that has
    roots for it, on its add, with the alpha terminals it passed; a
    delete, and every reply, is timetags."""

    #: A two-CE rule on one class (production 2, on forked worker 2 of
    #: three matchers): each tick has two roots there, under the one
    #: alpha terminal every rule here shares.
    PAIRS = TestOneRoundTrip.TWO + "(p pair (tick ^n <a>) (tick ^n <b>) --> (write <a>))\n"

    @staticmethod
    def wmes_in(obj):
        if isinstance(obj, WME):
            return 1
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, (tuple, list)):
            return sum(TestWire.wmes_in(item) for item in obj)
        return 0

    def test_a_wme_goes_down_once_per_worker_and_never_comes_back(self):
        _program, network = compiled_network(self.PAIRS)
        matcher = ProcessMatcher(network, n_workers=3)
        sent, received = TestOneRoundTrip.tap(matcher)
        tick = TestOneRoundTrip.tick
        [terminal] = network.alpha_terminals
        try:
            deltas = matcher.process_changes([WMEChange(1, tick(1, 1))])
            # count on matcher 0 (no pipe), echo on worker 1, pair on
            # worker 2: one WME and one alpha id for each.
            assert sorted(wid for wid, _msg, _data in sent) == [1, 2]
            for _wid, msg, _data in sent:
                [(sign, wme, hits)] = msg[2]
                assert sign == 1 and wme == tick(1, 1)
                assert hits == [terminal.alpha_id]
                assert self.wmes_in(msg) == 1
            # Worker 2 expands the one hit into pair's two roots (its
            # two CEs) and drains both: two join activations and the
            # terminal's.
            assert matcher._tasks_done[2] == 3
            assert sorted(p.name for p, _token, _sign in deltas) == [
                "count", "echo", "pair"]
            del sent[:]
            added = matcher.process_changes([WMEChange(1, tick(1, 2))])
            gone = matcher.process_changes([WMEChange(-1, tick(1, 1))])
            assert len(sent) == 4
            for _wid, msg, _data in sent[2:]:
                assert [item[:2] for item in msg[2]] == [(-1, 1)]
                assert self.wmes_in(msg) == 0
            assert received and all(
                self.wmes_in(pickle.loads(data)) == 0 for _wid, data in received)
            # Tokens are rebuilt from the working memory's own WMEs.
            for production, token, _sign in added + gone:
                assert token[1] == tuple(w.timetag for w in token[0])
            assert ("pair", (1, 2), -1) in {
                (p.name, token[1], sign) for p, token, sign in gone}
            assert sorted(matcher._wmes) == [2]
        finally:
            matcher.close()


class TestRootTables:
    """A change ships its alpha hits; each matcher expands them from its
    own table, alpha id -> that terminal's successors on the matcher."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", programs.__all__)
    def test_the_tables_split_each_terminal_in_order(self, name, k):
        from repro.parallel.mp.worker import root_tables

        _program, network = compiled_network(programs.read(name))
        index = {prod.name: i for i, prod in enumerate(network.productions)}
        tables = root_tables(network, k)
        matcher = ProcessMatcher(network, n_workers=k)
        try:
            assert matcher._share.roots == tables[0]
            for terminal in network.alpha_terminals:
                split = [roots.get(terminal.alpha_id, []) for roots in tables]
                for wid, mine in enumerate(split):
                    assert mine == [
                        (node, side) for node, side in terminal.successors
                        if index[network.node_owner[node.node_id]] % k == wid]
                assert matcher._reach[terminal.alpha_id] == [
                    wid for wid, mine in enumerate(split) if mine]
        finally:
            matcher.close()

    def test_a_changes_message_holds_alpha_ids_only(self):
        """On weaver 5x1 at 2 matchers every change a ``changes``
        message carries names alpha terminals with roots on its worker,
        and the messages average at most 150 pickled bytes."""
        from repro.programs import weaver

        interp = Interpreter(weaver.source(grid=5, n_nets=1), engine="mp",
                             engine_opts={"n_workers": 2})
        matcher = interp.matcher
        posts, inner = [], matcher._post

        def post(wid, msg):
            if msg[0] == "changes":
                posts.append((wid, msg, len(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))))
            return inner(wid, msg)

        matcher._post = post
        try:
            interp.run(max_cycles=10_000)
        finally:
            interp.close()
        assert posts
        for wid, msg, _size in posts:
            for _sign, _item, hits in msg[2]:
                assert hits and all(
                    type(alpha_id) is int and wid in matcher._reach[alpha_id]
                    for alpha_id in hits)
        assert sum(size for *_rest, size in posts) / len(posts) <= 150


class TestKeptTails:
    """What the control process keeps of a worker's flight ring: after
    k batches, the worker's last ``SHIP_FLIGHT_TAIL`` events in order —
    one tail, whichever replies carried them, bus on or off, and a
    ``report`` round trip leaves it as it was."""

    @pytest.mark.parametrize("bus", [False, True])
    @pytest.mark.parametrize("k", [3, 25])
    def test_the_kept_tail_is_the_workers_last_events(self, k, bus):
        from repro.obs import events
        from repro.obs.fabric import SHIP_FLIGHT_TAIL

        _program, network = compiled_network(TestOneRoundTrip.TWO)
        flight.reset()
        if bus:
            events.reset()
            events.enable()
        try:
            matcher = ProcessMatcher(network, n_workers=2)
            try:
                pid = matcher._procs[0].pid
                seqs = []
                for timetag in range(1, k + 1):
                    change = WMEChange(
                        sign=1, wme=TestOneRoundTrip.tick(timetag, timetag))
                    assert len(matcher.process_changes([change])) == 2
                    seqs.append(matcher._seq)
                kept = flight.remote_tail(pid)
                expected = [("start", {"wid": 1, "pid": pid})] + [
                    ("batch", {"wid": 1, "seq": seq, "changes": 1}) for seq in seqs]
                expected = expected[-SHIP_FLIGHT_TAIL:]
                assert [(e["event"], e["detail"]) for e in kept] == expected
                assert {e["engine"] for e in kept} == {"mp.worker"}
                stamps = [e["t_ns"] for e in kept]
                assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
                matcher.stats  # a report round trip
                assert flight.remote_tail(pid) == kept
                matcher.close()
                assert flight.remote_tail(pid) == kept
            finally:
                matcher.close()
        finally:
            if bus:
                events.disable()
                events.reset()


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
