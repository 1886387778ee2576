"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main

PROGRAM = """
(p hello (greeting ^to <who>) --> (write hello <who>) (halt))
(startup (make greeting ^to world))
"""


#: ``repro simulate blocks --processes 3 7 --queues 1 8 [--locks mrsw]``.
BLOCKS_LADDER_SIMPLE = """\
run: 5 cycles, 142 match tasks
uniprocessor match (simulated Encore Multimax): 0.013s
      config  speed-up  queue spins
      1+3/1q      2.33         1.52
      1+3/8q      2.26         1.31
      1+7/1q      2.80         2.64
      1+7/8q      3.09         2.28
"""
BLOCKS_LADDER_MRSW = """\
run: 5 cycles, 142 match tasks
uniprocessor match (simulated Encore Multimax): 0.015s
      config  speed-up  queue spins
      1+3/1q      2.40         1.57
      1+3/8q      2.48         1.29
      1+7/1q      3.11         2.87
      1+7/8q      3.22         2.40
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "hello.ops5"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


class TestRun:
    def test_run_prints_output(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "hello world" in out

    def test_run_stats_to_stderr(self, program_file, capsys):
        main(["run", program_file, "--stats"])
        err = capsys.readouterr().err
        assert "wm_changes=" in err
        assert "activations=" in err

    def test_run_trace_lists_firings(self, program_file, capsys):
        main(["run", program_file, "--trace"])
        err = capsys.readouterr().err
        assert "hello" in err

    def test_run_mea_and_linear(self, program_file, capsys):
        assert main(["run", program_file, "--strategy", "mea",
                     "--memory", "linear", "--mode", "interpreted"]) == 0
        assert "hello world" in capsys.readouterr().out

    def test_max_cycles(self, tmp_path, capsys):
        path = tmp_path / "loop.ops5"
        path.write_text(
            "(p l (a ^n <n>) --> (modify 1 ^n (compute <n> + 1)) (write tick))"
            "(startup (make a ^n 0))",
            encoding="utf-8",
        )
        main(["run", str(path), "--max-cycles", "3"])
        out = capsys.readouterr().out
        assert out.count("tick") == 3


class TestRunEngineOptionRules:
    """Engine-option rejections reach ``repro run`` as a clean
    ``SystemExit`` naming the verb (the rules live in repro.engines)."""

    @pytest.mark.parametrize("flags, needle", [
        (["--engine", "corgi", "--watchdog", "1"], "threaded or mp"),
    ])
    def test_rejected_with_verb_named(self, program_file, flags, needle):
        with pytest.raises(SystemExit) as exc:
            main(["run", program_file, *flags])
        assert str(exc.value).startswith("repro run: ")
        assert needle in str(exc.value)


class TestNetwork:
    def test_counts(self, program_file, capsys):
        assert main(["network", program_file]) == 0
        out = capsys.readouterr().out
        assert "productions:        1" in out
        assert "terminal:" in out

    def test_verbose_lists_nodes(self, tmp_path, capsys):
        path = tmp_path / "two.ops5"
        path.write_text("(p r (a ^x <v>) (b ^y <v>) --> (halt))", encoding="utf-8")
        main(["network", str(path), "-v"])
        out = capsys.readouterr().out
        assert "two-input nodes:" in out
        assert "join #" in out


class TestSimulate:
    def test_simulate_grid(self, program_file, capsys):
        assert main(
            ["simulate", program_file, "--processes", "1", "2", "--queues", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "speed-up" in out
        assert "1+2/1q" in out

    @pytest.mark.parametrize("flag", ["--processes", "--queues"])
    def test_a_count_below_one_is_a_usage_error_before_any_run(self, flag, monkeypatch, capsys):
        """Exit 2 naming the flag, from the parser: the program is
        never run (a 60-team Tourney used to be recorded first)."""
        from repro.ops5.interpreter import Interpreter

        def run(*_args, **_kw):
            raise AssertionError("the program ran")

        monkeypatch.setattr(Interpreter, "run", run)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "monkey", flag, "2", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least 1, got 0" in err

    def test_speedups_divide_by_the_same_lock_schemes_baseline(self, capsys):
        """Table 4-8's methodology: the uniprocessor column runs the MRSW
        code too (it once ran simple locks whatever ``--locks`` said).
        The verb prints each cell against ``uniprocessor_baseline``."""
        from repro import programs
        from repro.ops5.interpreter import Interpreter
        from repro.rete.trace import TraceRecorder
        from repro.simulator.engine import simulate, uniprocessor_baseline

        assert main(["simulate", "blocks", "--processes", "3", "7",
                     "--queues", "1", "8", "--locks", "mrsw"]) == 0
        out = capsys.readouterr().out
        recorder = TraceRecorder()
        Interpreter(programs.load("blocks"), recorder=recorder).run()
        base = uniprocessor_baseline(recorder.trace, lock_scheme="mrsw")
        runs = {(k, q): simulate(recorder.trace, k, q, lock_scheme="mrsw")
                for k in (3, 7) for q in (1, 8)}
        assert f"uniprocessor match (simulated Encore Multimax): {base.match_seconds:.3f}s" in out
        rows = [line.split() for line in out.splitlines() if line.strip().startswith("1+")]
        assert rows == [
            [f"1+{k}/{q}q", f"{base.match_instr / runs[k, q].match_instr:.2f}",
             f"{runs[k, q].queue_stats.mean_spins:.2f}"]
            for k in (3, 7) for q in (1, 8)
        ]
        simple = uniprocessor_baseline(recorder.trace)
        assert f"{simple.match_seconds:.3f}" != f"{base.match_seconds:.3f}"

    @pytest.mark.parametrize("locks, expected", [
        ("simple", BLOCKS_LADDER_SIMPLE), ("mrsw", BLOCKS_LADDER_MRSW),
    ], ids=["simple", "mrsw"])
    def test_each_cell_and_the_baseline_replay_once(self, locks, expected, monkeypatch, capsys):
        """One replay per (match processes, queues, lock scheme,
        pipelined) cell, the uniprocessor baseline included, whatever
        the number of queue counts; the printed ladder does not move."""
        from collections import Counter

        from repro.simulator import engine, report

        replays = Counter()
        replay = engine.simulate

        def counted(*args, **kwargs):
            result = replay(*args, **kwargs)
            o = result.options
            replays[o.n_match, o.n_queues, o.lock_scheme, o.pipelined] += 1
            return result

        monkeypatch.setattr(engine, "simulate", counted)
        monkeypatch.setattr(report, "simulate", counted)
        assert main(["simulate", "blocks", "--processes", "3", "7", "--queues", "1", "8",
                     "--locks", locks]) == 0
        assert capsys.readouterr().out == expected
        assert replays == {
            (k, q, locks, pipelined): 1
            for k, q, pipelined in ((1, 1, False), (3, 1, True), (3, 8, True),
                                    (7, 1, True), (7, 8, True))
        }


class TestTables:
    def test_unknown_table_id(self, capsys):
        assert main(["tables", "9-9"]) == 2
        assert "unknown tables" in capsys.readouterr().err

    def test_a_table_prints_its_committed_report(self, capsys):
        """The verb's path through ``harness.experiments``: the report
        ``pytest benchmarks`` writes, then one blank line."""
        from pathlib import Path

        report = Path(__file__).parents[1] / "benchmarks" / "reports" / "task_durations.txt"
        assert main(["tables", "task-durations"]) == 0
        assert capsys.readouterr().out == report.read_text(encoding="utf-8") + "\n"


class TestSchedck:
    def test_single_seed_exits_zero(self, capsys):
        assert main(["check", "schedck", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "schedck seed=42 policy=random config=1+2/1q/simple/64l" in out
        assert "findings: 0" in out

    def test_report_deterministic_across_invocations(self, capsys):
        main(["check", "schedck", "--seed", "7", "--policy", "pct"])
        first = capsys.readouterr().out
        main(["check", "schedck", "--seed", "7", "--policy", "pct"])
        assert capsys.readouterr().out == first

    def test_config_flags_reach_report(self, capsys):
        assert main(
            ["check", "schedck", "--seed", "3", "--workers", "4", "--queues", "4",
             "--locks", "mrsw", "--policy", "pct:5"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy=pct:5 config=1+4/4q/mrsw/64l" in out

    def test_sweep_smoke(self, capsys):
        assert main(["check", "schedck", "--sweep", "4", "--seed", "100"]) == 0
        out = capsys.readouterr().out
        assert "schedck sweep: 4 schedules, 0 failing, 0 truncated" in out

    def test_truncated_schedule_exits_nonzero(self, capsys):
        assert main(["check", "schedck", "--seed", "42", "--max-steps", "50"]) == 1
        assert "(truncated)" in capsys.readouterr().out

    def test_unknown_policy_is_clean_exit(self):
        for policy in ["bogus", "adversarial:delay-plus", "burst:50", "pct:x"]:
            with pytest.raises(SystemExit) as exc:
                main(["check", "schedck", "--policy", policy])
            assert f"unknown schedule policy {policy!r}" in str(exc.value)

    def test_zero_workers_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "schedck", "--workers", "0"])
        assert "match process" in str(exc.value)


class TestReadProgramErrors:
    def test_missing_file_is_clean_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ops5")
        with pytest.raises(SystemExit) as exc:
            main(["run", missing])
        assert "cannot read" in str(exc.value)
        assert missing in str(exc.value)


    PROGRAM_TAKING = [
        ["run"], ["network"], ["simulate"], ["trace", "--out", "/dev/null"],
        ["trace", "--engine", "corgi", "--out", "/dev/null"],
        ["run", "--engine", "corgi"],
        ["loadgen", "--spawn", "--program"],
    ]

    @staticmethod
    def assert_message(argv, bad, needle):
        verb = " ".join(arg for arg in argv[:2] if not arg.startswith("-"))
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(bad)])
        message = str(exc.value)
        assert message.startswith(f"repro {verb}: {bad}: "), message
        assert needle in message

    @pytest.mark.parametrize("argv", PROGRAM_TAKING,
                             ids=lambda argv: " ".join(argv[:2]))
    def test_syntax_error_is_a_message_not_a_traceback(self, tmp_path, argv):
        """An Ops5Error while loading the program of any program-taking
        verb ends as ``repro <verb>: <file>: <message>``."""
        bad = tmp_path / "bad.ops5"
        bad.write_text("(p broken (a ^x <v>) --> (halt)", encoding="utf-8")
        self.assert_message(argv, bad, "unexpected end of input")

    @pytest.mark.parametrize("argv", [a for a in PROGRAM_TAKING
                                      if a[0] not in ("network", "loadgen")],
                             ids=lambda argv: " ".join(argv[:2]))
    def test_semantic_error_is_a_message_too(self, tmp_path, argv):
        """...including the ones only RHS compilation finds, on every
        verb that builds an interpreter."""
        bad = tmp_path / "bad.ops5"
        bad.write_text("(p bad (a ^x 1) --> (modify 3 ^x 2))", encoding="utf-8")
        self.assert_message(argv, bad, "modify")


class TestEngineFlags:
    """The engine flags are declared once (repro.engines) and resolved
    once (``engine_from_args``) for every verb that runs a program."""

    def test_traced_run_with_one_queue_per_worker(self, tmp_path, capsys):
        assert main(["trace", "blocks", "--engine", "threaded", "--workers", "2",
                     "--queues", "2", "--out", str(tmp_path / "t.json")]) == 0
        assert "(equal)" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, needle", [
        (["--watchdog", "1"], "threaded or mp"),
        (["--engine", "corgi", "--queues", "2"], "requires the threaded engine"),
        (["--engine", "corgi", "--watchdog", "1"], "threaded or mp"),
    ])
    def test_traced_verbs_share_the_engine_option_rules(self, flags, needle):
        for verb in (["run"], ["trace"]):
            with pytest.raises(SystemExit) as exc:
                main([*verb, "blocks", *flags])
            assert str(exc.value).startswith(f"repro {' '.join(verb)}: ")
            assert needle in str(exc.value)

    @pytest.mark.parametrize("engine, option, flag, value", [
        ("threaded", "memory", "--memory", "linear"),
        ("mp", "memory", "--memory", "linear"),
        ("corgi", "memory", "--memory", "linear"),
        ("mp", "n_queues", "--queues", 2),
        ("corgi", "lock_scheme", "--locks", "mrsw"),
        ("sequential", "n_queues", "--queues", 2),
        ("sequential", "lock_scheme", "--locks", "simple"),
    ])
    def test_flags_the_engine_would_silently_ignore_are_rejected(
        self, engine, option, flag, value
    ):
        """Re-measuring Table 4-1's linear column on another engine must
        not quietly return the hash number; the same rule is a
        ``ValueError`` from ``make_matcher``."""
        from repro.engines import make_matcher

        with pytest.raises(SystemExit) as exc:
            main(["run", "monkey", "--engine", engine, flag, str(value)])
        assert str(exc.value).startswith("repro run: ") and flag in str(exc.value)
        with pytest.raises(ValueError, match=flag):
            make_matcher(engine, None, **{option: value})

    @pytest.mark.parametrize("engine", ["corgi", "threaded", "mp"])
    def test_a_recorder_off_the_sequential_engine_is_refused(self, engine):
        """Only the sequential matcher records tasks; another engine
        would hand the simulator an empty trace (0 tasks where
        sequential records 142 on blocks)."""
        from repro import programs
        from repro.ops5.interpreter import Interpreter
        from repro.rete.trace import TraceRecorder

        recorder = TraceRecorder()
        Interpreter(programs.load("blocks"), recorder=recorder).run(max_cycles=5)
        assert len(recorder.trace.tasks) == 142
        with pytest.raises(ValueError, match="recorder"):
            Interpreter(programs.load("blocks"), engine=engine,
                        recorder=TraceRecorder())

    @pytest.mark.parametrize("engine", ["corgi", "threaded", "mp"])
    def test_a_recorder_beside_a_matcher_not_built_with_it_is_refused(self, engine):
        """``matcher=`` plus ``recorder=`` recorded nothing when the
        matcher was not built with that recorder (corgi on blocks: 0
        tasks); a sequential matcher built with it is the one door."""
        from repro import programs
        from repro.engines import make_matcher
        from repro.ops5.interpreter import Interpreter
        from repro.rete.network import ReteNetwork
        from repro.rete.trace import TraceRecorder

        program = programs.load("blocks")
        network = ReteNetwork.compile(program)
        recorder = TraceRecorder()
        matcher = make_matcher(engine, network, n_workers=1)
        try:
            with pytest.raises(ValueError, match="recorder"):
                Interpreter(program, matcher=matcher, network=network,
                            recorder=recorder)
        finally:
            matcher.close()
        with pytest.raises(ValueError, match="recorder"):
            Interpreter(program, matcher=make_matcher(
                "sequential", network, recorder=TraceRecorder()),
                network=network, recorder=recorder)
        interp = Interpreter(program, matcher=make_matcher(
            "sequential", network, recorder=recorder),
            network=network, recorder=recorder)
        interp.run(max_cycles=5)
        assert len(recorder.trace.tasks) == 142

    def test_flags_naming_what_the_engine_runs_anyway_are_fine(self, capsys):
        assert main(["run", "monkey", "--engine", "threaded", "--memory", "hash",
                     "--queues", "2", "--locks", "mrsw"]) == 0
        assert "grabs the bananas" in capsys.readouterr().out

    def test_trace_takes_strategy_and_memory(self, tmp_path, capsys):
        assert main(["trace", "blocks", "--strategy", "mea", "--memory", "linear",
                     "--out", str(tmp_path / "t.json")]) == 0
        assert "hot productions" in capsys.readouterr().out

    def test_run_takes_builtin_names_and_the_shared_flags(self, capsys):
        """docs/OBSERVABILITY.md "Using it": `repro run rubik --engine
        threaded --workers 3 --queues 2 --watchdog 5 ...` (on blocks,
        which halts in five cycles)."""
        assert main(["run", "blocks", "--engine", "threaded", "--workers",
                     "3", "--queues", "2", "--watchdog", "60"]) == 0
        assert "all goals satisfied" in capsys.readouterr().out

    def test_the_unused_run_spellings_are_gone(self, capsys):
        for flag in ("--run-queues", "--run-locks"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "blocks", flag, "2"])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_loadgen_forwards_what_the_protocol_carries(self, capsys):
        assert main(["loadgen", "--spawn", "--scenario", "monkey",
                     "--sessions", "2", "--transactions", "3", "--verify",
                     "--engine", "threaded", "--workers", "2"]) == 0
        assert "verify: 2/2" in capsys.readouterr().out

    def test_loadgen_rejects_flags_the_protocol_cannot_carry(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--spawn", "--engine", "threaded",
                  "--queues", "2", "--locks", "mrsw"])
        assert str(exc.value).startswith("repro loadgen: engine options ")
        assert "n_queues, lock_scheme" in str(exc.value)


class TestServe:
    def test_bad_port_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "70000"])
        assert str(exc.value) == "repro serve: invalid port 70000; expected 0-65535"

    def test_negative_port_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "-1"])
        assert "repro serve: invalid port" in str(exc.value)

    def test_unreadable_preload_is_clean_exit(self, tmp_path):
        missing = str(tmp_path / "nope.ops5")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--preload", missing])
        assert str(exc.value).startswith("repro serve: cannot read")
        assert missing in str(exc.value)

    def test_bad_limits_are_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--inbox-depth", "0"])
        assert str(exc.value).startswith("repro serve: ")


class TestLoadgen:
    def test_needs_a_target(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen"])
        assert str(exc.value) == "repro loadgen: need --connect HOST:PORT or --spawn"

    def test_connect_and_spawn_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--connect", "h:1", "--spawn"])
        assert "exclusive" in str(exc.value)

    @pytest.mark.parametrize("target", ["nohost", ":80", "host:", "host:zap",
                                        "host:0", "host:70000"])
    def test_bad_connect_is_clean_exit(self, target):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--connect", target])
        assert f"repro loadgen: bad --connect {target!r}" in str(exc.value)

    def test_unknown_scenario_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--spawn", "--scenario", "bogus"])
        assert "repro loadgen: unknown scenario 'bogus'" in str(exc.value)
        assert "blocks, monkey, tourney, mix" in str(exc.value)

    def test_unreadable_program_is_clean_exit(self, tmp_path):
        missing = str(tmp_path / "nope.ops5")
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--spawn", "--program", missing])
        assert str(exc.value).startswith("repro loadgen: cannot read")

    def test_nonpositive_counts_are_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--spawn", "--sessions", "0"])
        assert "must be positive" in str(exc.value)

    def test_spawn_smoke_exits_zero(self, capsys):
        assert main(["loadgen", "--spawn", "--scenario", "monkey",
                     "--sessions", "2", "--transactions", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify: 2/2 sessions byte-identical" in out
        assert "0 errors" in out


class TestTrace:
    def test_trace_builtin_blocks(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        out = tmp_path / "blocks-trace.json"
        assert main(["trace", "blocks", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "move-block" in text  # per-production profile
        assert "(equal)" in text  # profile == MatchStats.node_activations
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []

    def test_trace_parallel_worker_timelines(self, tmp_path, capsys):
        import json

        out = tmp_path / "par-trace.json"
        assert main(["trace", "blocks", "--out", str(out),
                     "--engine", "threaded", "--workers", "2"]) == 0
        assert "(equal)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        threads = {
            e["args"]["name"]
            for e in doc["traceEvents"] if e.get("ph") == "M"
        }
        assert any(t.startswith("match-") for t in threads)

    def test_trace_program_file(self, program_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", program_file, "--out", str(out)]) == 0
        assert "hello" in capsys.readouterr().out  # production name
        assert out.exists()

    def test_trace_disables_bus_afterwards(self, tmp_path):
        from repro.obs import events

        main(["trace", "blocks", "--out", str(tmp_path / "t.json")])
        assert events.enabled() is False

    def test_unknown_builtin_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "no-such-program", "--out", "/dev/null"])
        assert "neither a file nor a builtin" in str(exc.value)

    def test_trace_prints_the_productions_table(self, tmp_path, capsys):
        assert main(["trace", "blocks", "--out", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        assert "hot productions" in out
        assert "move-block" in out
        assert "hot nodes" in out

    def test_trace_prints_the_phase_table(self, tmp_path, capsys):
        assert main(["trace", "blocks", "--out", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        assert "phases (recognize-act cycle):" in out
        assert "match" in out

    def test_trace_parallel_prints_the_lock_table(self, tmp_path, capsys):
        assert main(["trace", "blocks", "--engine", "threaded", "--workers", "2",
                     "--out", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        assert "lock contention:" in out
        assert "taskcount" in out

    def test_trace_total_is_the_match_stats_total(self, tmp_path, capsys):
        """The productions table's total line counts every activation."""
        from repro.ops5.interpreter import Interpreter
        from repro.programs import load

        assert main(["trace", "monkey", "--out", str(tmp_path / "t.json")]) == 0
        interp = Interpreter(load("monkey"))
        interp.run()
        total = interp.stats.node_activations
        assert total > 0
        assert f"total activations: {total}\n" in capsys.readouterr().out

    def test_trace_limit(self, tmp_path, capsys):
        assert main(["trace", "blocks", "--limit", "2",
                     "--out", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        assert "hot productions (top 2):" in out and "hot nodes (top 2):" in out


class TestObsVerbs:
    @staticmethod
    def needs_mp():
        from repro.parallel.mp import mp_supported

        if not mp_supported():
            pytest.skip("mp engine needs the 'fork' start method")

    def test_trace_mp_stitched_plus_capture_round_trip(self, tmp_path, capsys):
        """An mp run's one trace document: every process, dispatch flow
        arrows, no orphan batch -- and it is the only file written."""
        import json

        from repro.obs.export import validate_chrome_trace

        self.needs_mp()
        out = tmp_path / "stitched.json"
        assert main(["trace", "blocks", "--engine", "mp", "--workers", "2",
                     "--out", str(out)]) == 0
        assert "(equal)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 100}  # the control process and match-1
        assert any(e.get("ph") == "s" for e in doc["traceEvents"])
        assert doc["otherData"]["stitch_orphans"] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["stitched.json"]

    @pytest.mark.parametrize("verb", ["trace"])
    def test_negative_max_events_is_refused_at_the_front_door(self, verb, tmp_path):
        """It used to be accepted and drop every span silently."""
        with pytest.raises(SystemExit, match=f"repro {verb}: --max-events must be >= 0"):
            main([verb, "blocks", "--max-events", "-1"])

    def test_max_events_bounds_the_worker_processes_timelines_too(
        self, tmp_path, capsys
    ):
        """One cap for every timeline: the mp workers' rows used to sit
        in a second structure with a cap of its own that ``--max-events``
        did not move."""
        import json

        self.needs_mp()
        out = tmp_path / "trace.json"
        assert main(["trace", "blocks", "--engine", "mp", "--workers", "2",
                     "--max-events", "5", "--out", str(out)]) == 0
        assert "dropped spans" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        rows = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                key = (event["pid"], event["tid"])
                rows[key] = rows.get(key, 0) + 1
        assert {pid for pid, _tid in rows} == {1, 100}
        assert max(rows.values()) <= 5
        assert doc["otherData"]["dropped_spans"] > 0

    def test_run_flight_dump_snapshot(self, tmp_path, capsys):
        import json

        from repro.obs import flight
        from repro.obs.flight import validate_flight

        out = tmp_path / "flight.json"
        try:
            assert main(["run", "blocks", "--engine", "threaded", "--workers",
                         "2", "--flight-dump", str(out)]) == 0
        finally:
            flight.set_dump_path(None)
        err = capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert validate_flight(doc) == []
        assert doc["events"]
        assert f"(ring {doc['ring_capacity']}, " in err
        assert f"{len(doc.get('workers') or {})} worker tails) -> {out}" in err

    def test_run_flight_dump_is_written_when_the_run_ends(self, tmp_path):
        """A clean run leaves the flight snapshot behind too (a failing
        one: tests/obs/test_flight.py), with every mp worker's tail.  In
        a fresh process, so the engines map names this run's only."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.obs.flight import validate_flight

        self.needs_mp()
        out = tmp_path / "flight.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "blocks", "--engine", "mp",
             "--workers", "2", "--flight-dump", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert "all goals satisfied" in proc.stdout
        assert f"1 worker tails) -> {out}" in proc.stderr
        doc = json.loads(out.read_text())
        assert validate_flight(doc) == []
        assert doc["reason"] == "cli" and doc["events"]
        assert doc["engines"] == {"mp": 2}
        # Two matchers, one forked: match-0 is this run's own process.
        assert [name.split(" (pid ")[0] for name in doc["workers"]] == ["match-1"]

    def test_run_watchdog_needs_parallel_engine(self, program_file):
        with pytest.raises(SystemExit, match="threaded or mp"):
            main(["run", program_file, "--watchdog", "5"])

    def test_run_with_watchdog_threaded(self, program_file, capsys):
        assert main(["run", program_file, "--engine", "threaded",
                     "--workers", "2", "--watchdog", "60"]) == 0
        captured = capsys.readouterr()
        assert "hello world" in captured.out
        assert "watchdog tripped" not in captured.err


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "VERB" in capsys.readouterr().err

