"""Failure-injection tests: the system detects corruption rather than
silently producing wrong matches."""

import os
import textwrap

import pytest

from repro.ops5.conflict import ConflictSet
from repro.ops5.errors import RuntimeOps5Error
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.ops5.wme import WME, WMEChange, WorkingMemory
from repro.parallel.conjugate import ConjugateMemory
from repro.parallel.engine import ParallelMatcher
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.rete.token import of
from tests.rete.memdriver import NodeMemory


class TestSequentialStrictness:
    def test_phantom_delete_detected(self):
        """A delete for a WME the matcher never saw is a driver bug and
        must raise, not be absorbed."""
        network = ReteNetwork.compile(
            parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        )
        matcher = SequentialMatcher(network)
        ghost = WME.make("a", {"x": 1}, 999)
        with pytest.raises(RuntimeError):
            matcher.process_changes([WMEChange(-1, ghost)])

    def test_double_delete_detected(self):
        network = ReteNetwork.compile(
            parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        )
        matcher = SequentialMatcher(network)
        wm = WorkingMemory()
        wme = wm.add("a", {"x": 1})
        matcher.process_changes([WMEChange(1, wme)])
        matcher.process_changes([WMEChange(-1, wme)])
        with pytest.raises(RuntimeError):
            matcher.process_changes([WMEChange(-1, wme)])


class TestConflictSetGuards:
    def test_strict_set_rejects_corruption(self):
        from tests.ops5.test_conflict import prod, token

        cs = ConflictSet(strict=True)
        cs.apply(prod("r"), token(1), +1)
        with pytest.raises(RuntimeOps5Error):
            cs.apply(prod("r"), token(1), +1)

    def test_parallel_interpreter_validates_after_each_batch(self):
        """If the matcher hands back unbalanced deltas, the interpreter's
        post-batch validation catches it immediately."""
        program = parse_program("(p r (a) --> (halt))")
        network = ReteNetwork.compile(program)

        class LyingMatcher:
            strict_cs = False

            def process_changes(self, changes):
                # A remove with no matching add: count goes negative.
                return [(program.productions[0], of((c.wme,)), -1) for c in changes]

        interp = Interpreter(program, matcher=LyingMatcher())
        with pytest.raises(RuntimeOps5Error):
            interp.add_wme("a")


class TestConjugateAccounting:
    def test_unbalanced_parked_deletes_detected(self):
        """A parked delete that never meets its add means tokens were
        lost; the engine refuses to call the batch complete."""
        program = parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        network = ReteNetwork.compile(program)
        matcher = ParallelMatcher(network, n_workers=1)
        try:
            ghost = WME.make("a", {"x": 1}, 999)
            with pytest.raises(RuntimeError):
                matcher.process_changes([WMEChange(-1, ghost)])
        finally:
            matcher.close()

    def test_conjugate_memory_isolates_nodes(self):
        memory = NodeMemory(ConjugateMemory(16))
        memory.remove(1, "L", (), (5,))
        # The park must not leak into other nodes' inserts.
        assert memory.insert(2, "L", (), of((WME.make("c", {}, 5),))) is True
        assert memory.pending_deletes == 1


def break_keys(network):
    """Make the first join's key functions raise inside a worker."""

    def broken(_arg):
        raise ValueError("injected key failure")

    node = network.two_input_nodes()[0]
    node.left_key_fn = node.right_key_fn = broken


class TestWorkerFaultPropagation:
    def test_exception_in_worker_reaches_control(self):
        program = parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        network = ReteNetwork.compile(program)
        matcher = ParallelMatcher(network, n_workers=2)
        break_keys(network)
        wm = WorkingMemory()
        with pytest.raises(RuntimeError, match="match process failed"):
            matcher.process_changes([WMEChange(1, wm.add("a", {"x": 1}))])

    def test_failure_in_the_retract_wave_stops_the_batch(self):
        """A node that raises while a mixed batch's ``-`` changes run
        surfaces before any ``+`` change is pushed, and closes the
        matcher."""
        program = parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        network = ReteNetwork.compile(program)
        matcher = ParallelMatcher(network, n_workers=2, n_queues=2)
        wm = WorkingMemory()
        a = wm.add("a", {"x": 1})
        matcher.process_changes([WMEChange(1, a)])
        break_keys(network)
        pushed = []
        push = matcher.queues.push
        matcher.queues.push = lambda task, home=0: (pushed.append(task), push(task, home))
        old, new = wm.modify(a, {"x": 2})
        with pytest.raises(RuntimeError, match="match process failed"):
            matcher.process_changes([WMEChange(-1, old), WMEChange(1, new)])
        assert [t[1] for t in pushed if t[0] == "change"] == [-1]
        with pytest.raises(RuntimeError, match="already closed"):
            matcher.process_changes([])

    def test_failed_matcher_refuses_further_work(self):
        program = parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        network = ReteNetwork.compile(program)
        matcher = ParallelMatcher(network, n_workers=1)
        break_keys(network)
        wm = WorkingMemory()
        with pytest.raises(RuntimeError):
            matcher.process_changes([WMEChange(1, wm.add("a", {"x": 1}))])
        with pytest.raises(RuntimeError):
            matcher.process_changes([])

    @pytest.mark.parametrize("scheme", ["simple", "mrsw"])
    def test_raise_inside_the_modify_bracket_releases_the_line(self, scheme):
        """The §3.2 bracket is taken inside the activation frame; a
        conjugate hook that raises there must still surface as the
        typed error, promptly, with every line and modification lock
        released — no worker left spinning, no watchdog trip."""
        import threading
        import time

        class Boom(Exception):
            pass

        def boom(*_args):
            raise Boom("before_insert")

        program = parse_program("(p r (a ^x <v>) (b ^y <v>) --> (halt))")
        network = ReteNetwork.compile(program)
        matcher = ParallelMatcher(
            network, n_workers=2, n_queues=2, lock_scheme=scheme, n_lines=8,
            watchdog_s=30.0,
        )
        matcher.memory.before_insert = boom
        wm = WorkingMemory()
        batch = [WMEChange(1, wm.add("a", {"x": i % 3})) for i in range(12)]
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="match process failed") as exc:
            matcher.process_changes(batch)
        assert isinstance(exc.value.__cause__, Boom)
        assert time.monotonic() - t0 < 5.0  # close() joined both workers
        assert not any(t.is_alive() for t in matcher._threads)
        assert matcher.line_locks.holders() == {}
        assert matcher.watchdog.trips == 0

        # Every line can still be entered and bracketed from either
        # side: nothing was left held.
        locks = matcher.line_locks

        def sweep():
            for line in range(8):
                for side in "LR":
                    assert locks.enter(line, side)
                    locks.enter_modify(line)
                    locks.exit_modify(line)
                    locks.exit(line, side)

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        sweeper.join(5.0)
        assert not sweeper.is_alive()

        # The network is unharmed: a fresh matcher runs the batch clean.
        with ParallelMatcher(network, n_workers=2, lock_scheme=scheme) as fresh:
            assert fresh.process_changes(batch) == []
            assert fresh.memory.total_tokens() == len(batch)


class TestWorkerProcessDeath:
    """The process-level half of the fault matrix: a match *process*
    that dies owes the control process a reply that will never come.
    However it dies in its batch handler — exiting, or SIGKILLed — the
    run ends inside a bounded time in the typed error
    naming it, with the last flight tail it shipped in the message and
    in the crash dump, and no watchdog trip."""

    #: ``watch`` (production 1, forked worker match-1's) never fires:
    #: one tick exists at a time.  Every tick change has roots there.
    PROGRAM = """
    (literalize tick n)
    (p count (tick ^n {<n> < 50}) --> (modify 1 ^n (compute <n> + 1)))
    (p watch (tick ^n <n>) (tick ^n > <n>) --> (halt))
    (startup (make tick ^n 0))
    """

    @staticmethod
    def dying(method, fatal_call, die):
        """``_WorkerState.<method>`` as forked worker 1 runs it: its
        ``fatal_call``-th call dies instead (earlier ones, and every
        other worker's, are the real thing — so the worker has shipped
        a tail by then)."""
        calls = []

        def wrapper(self, *args):
            calls.append(args)
            if self.wid == 1 and len(calls) == fatal_call:
                die()
            return method(self, *args)

        return wrapper

    @pytest.mark.parametrize("where, exitcode", [
        ("on_changes", 9),    # exits in its batch: no reply ever comes
        ("on_changes", -9),   # SIGKILL in its batch: no reply ever comes
    ])
    def test_death_is_a_typed_error_with_the_workers_last_tail(
        self, where, exitcode, tmp_path, monkeypatch
    ):
        import json
        import os
        import signal
        import time

        from repro.obs import flight
        from repro.parallel.mp import ProcessMatcher, mp_supported
        from repro.parallel.mp.worker import _WorkerState

        if not mp_supported():
            pytest.skip("mp engine needs the 'fork' start method")
        die = ((lambda: os._exit(9)) if exitcode == 9
               else (lambda: os.kill(os.getpid(), signal.SIGKILL)))
        # Patched before the fork, so the workers inherit it.
        monkeypatch.setattr(
            _WorkerState, where, self.dying(getattr(_WorkerState, where), 3, die))
        dump = tmp_path / "crash.json"
        flight.reset()
        flight.set_dump_path(str(dump))
        program = parse_program(self.PROGRAM)
        network = ReteNetwork.compile(program)
        matcher = ProcessMatcher(network, n_workers=2, watchdog_s=2.0)
        interp = Interpreter(program, matcher=matcher, network=network)
        try:
            t0 = time.monotonic()
            with pytest.raises(RuntimeError) as exc:
                interp.run(max_cycles=100)
            assert time.monotonic() - t0 < 5.0
        finally:
            interp.close()
            flight.set_dump_path(None)
        text = str(exc.value)
        assert f"match process match-1 died (exit {exitcode})" in text
        # No ("error", ...) message from a process that never got to
        # send one: the tail is the one it last shipped.
        assert "worker flight recorder (last" in text
        assert "mp.worker.batch" in text
        assert matcher.watchdog.trips == 0
        assert any(e["event"] == "worker_death" for e in flight.tail())

        # The dump on disk is the interpreter's, written *after* the
        # matcher closed — the worker tails outlive the matcher.
        doc = json.loads(dump.read_text())
        assert flight.validate_flight(doc) == []
        assert doc["reason"] == "match_error"
        dead = f"match-1 (pid {matcher._procs[0].pid})"
        assert any(e["event"] == "batch" for e in doc["workers"][dead])

        # Nothing of the failure outlives it: the same network, a fresh
        # matcher, a clean run.
        monkeypatch.undo()
        flight.reset()
        with Interpreter(program, engine="mp", network=network,
                         engine_opts={"n_workers": 2}) as fresh:
            assert fresh.run(max_cycles=100).cycles == 50


def children_of(pid):
    """The OS pids whose parent is ``pid`` (from ``/proc``)."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = proc_stat(int(entry))
            if stat is not None and int(stat[1]) == pid:
                kids.append(int(entry))
    return kids


def proc_stat(pid):
    """``/proc/<pid>/stat``'s fields after the command name (state,
    ppid, ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None


def running(pid):
    stat = proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestOrphans:
    """A match process ends with its control process: SIGKILL the
    process holding mp workers, and every worker is gone within 2 s.
    A forked worker closes each control end of a pipe it inherited, so
    the control process's death is an EOF on its own pipe."""

    HOLD = textwrap.dedent("""
        import sys, time
        from repro.ops5.parser import parse_program
        from repro.parallel.mp import ProcessMatcher
        from repro.rete.network import ReteNetwork
        source = "(literalize tick n)\\n" + "".join(
            f"(p r{i} (tick ^n <n>) --> (write <n>))\\n" for i in range(3))
        matcher = ProcessMatcher(ReteNetwork.compile(parse_program(source)),
                                 n_workers=3)
        print("ready", flush=True)
        time.sleep(60)
    """)

    @staticmethod
    def spawn(argv):
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])))
        return subprocess.Popen([sys.executable, *argv], env=env,
                                stdout=subprocess.PIPE, text=True)

    @staticmethod
    def kill_and_wait_for(holder, workers):
        """SIGKILL ``holder``; the workers still running 2 s later (each
        of them SIGKILLed then, so a failing test leaks nothing)."""
        import signal
        import time

        assert workers
        holder.kill()
        holder.wait()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(map(running, workers)):
            time.sleep(0.02)
        left = [pid for pid in workers if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        return left

    def test_workers_end_with_a_killed_matcher_holder(self):
        holder = self.spawn(["-c", self.HOLD])
        try:
            assert holder.stdout.readline().strip() == "ready"
            workers = children_of(holder.pid)
        finally:
            left = self.kill_and_wait_for(holder, workers)
        assert left == []
        assert len(workers) == 2

    def test_workers_end_with_a_killed_server(self):
        import json
        import socket

        from tests.serve.conftest import COUNTER

        server = self.spawn(["-m", "repro", "serve", "--port", "0"])
        workers = []
        try:
            line = server.stdout.readline()
            host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                stream = sock.makefile("rw")
                for sid in (1, 2):  # two mp sessions, one server
                    stream.write(json.dumps({
                        "id": sid, "type": "open", "program": COUNTER,
                        "engine": "mp", "workers": 2}) + "\n")
                    stream.flush()
                    assert json.loads(stream.readline())["ok"]
                workers = children_of(server.pid)
        finally:
            left = self.kill_and_wait_for(server, workers)
        assert left == []
        assert len(workers) == 2
