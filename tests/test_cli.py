"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main

PROGRAM = """
(p hello (greeting ^to <who>) --> (write hello <who>) (halt))
(startup (make greeting ^to world))
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
        (["--engine", "threaded", "--policy", "bogus"], "unknown policy 'bogus'"),
        (["--policy", "affinity"], "threaded or mp"),
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

    def test_speedups_divide_by_the_same_lock_schemes_baseline(self, capsys):
        """Table 4-8's methodology: the uniprocessor column runs the MRSW
        code too (it once ran simple locks whatever ``--locks`` said)."""
        from repro import programs
        from repro.ops5.interpreter import Interpreter
        from repro.rete.trace import TraceRecorder
        from repro.simulator.report import speedup_curve

        assert main(["simulate", "blocks", "--processes", "3", "--queues", "1",
                     "--locks", "mrsw"]) == 0
        out = capsys.readouterr().out
        recorder = TraceRecorder()
        Interpreter(programs.load("blocks"), recorder=recorder).run()
        curve = speedup_curve(recorder.trace, processes=(3,), lock_scheme="mrsw")
        assert f"uniprocessor match (simulated Encore Multimax): {curve.baseline_seconds:.3f}s" in out
        assert f"{'1+3/1q':>12} {curve.speedups[0]:>9.2f}" in out
        simple = speedup_curve(recorder.trace, processes=(3,))
        assert f"{simple.baseline_seconds:.3f}" != f"{curve.baseline_seconds:.3f}"


class TestTables:
    def test_unknown_table_id(self, capsys):
        assert main(["tables", "9-9"]) == 2
        assert "unknown tables" in capsys.readouterr().err


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
             "--locks", "mrsw", "--policy", "adversarial:delay-plus"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy=adversarial:delay-plus config=1+4/4q/mrsw/64l" in out

    def test_sweep_smoke(self, capsys):
        assert main(["check", "schedck", "--sweep", "4", "--seed", "100"]) == 0
        out = capsys.readouterr().out
        assert "schedck sweep: 4 schedules, 0 failing, 0 truncated" in out

    def test_truncated_schedule_exits_nonzero(self, capsys):
        assert main(["check", "schedck", "--seed", "42", "--max-steps", "50"]) == 1
        assert "(truncated)" in capsys.readouterr().out

    def test_unknown_policy_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "schedck", "--policy", "bogus"])
        assert "unknown schedule policy" in str(exc.value)

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
        ["top"], ["obs", "flight", "--out", "/dev/null"],
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

    @pytest.mark.parametrize("verb", [["run"], ["trace"], ["top"],
                                      ["obs", "flight"]], ids=" ".join)
    def test_parallel_contradicting_engine_is_rejected(self, verb):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "blocks", "--parallel", "2", "--engine", "mp"])
        assert str(exc.value).startswith(f"repro {' '.join(verb)}: --parallel 2")

    def test_parallel_contradicting_workers_is_rejected(self):
        with pytest.raises(SystemExit, match="--parallel 2 means"):
            main(["top", "blocks", "--parallel", "2", "--workers", "3"])

    def test_parallel_is_shorthand_for_threaded_workers(self, tmp_path, capsys):
        flight = tmp_path / "f.json"
        assert main(["obs", "flight", "blocks", "--parallel", "2",
                     "--engine", "threaded", "--out", str(flight)]) == 0
        assert "run: engine=threaded " in capsys.readouterr().out

    def test_traced_run_takes_a_dispatch_policy(self, tmp_path, capsys):
        assert main(["trace", "blocks", "--parallel", "2", "--queues", "2",
                     "--policy", "affinity",
                     "--out", str(tmp_path / "t.json")]) == 0
        assert "(equal)" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, needle", [
        (["--policy", "affinity"], "threaded or mp"),
        (["--parallel", "2", "--policy", "bogus"], "unknown policy 'bogus'"),
        (["--engine", "corgi", "--watchdog", "1"], "threaded or mp"),
    ])
    def test_traced_verbs_share_the_engine_option_rules(self, flags, needle):
        for verb in (["trace"], ["top"], ["obs", "flight"]):
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

    def test_flags_naming_what_the_engine_runs_anyway_are_fine(self, capsys):
        assert main(["run", "monkey", "--engine", "threaded", "--memory", "hash",
                     "--queues", "2", "--locks", "mrsw"]) == 0
        assert "grabs the bananas" in capsys.readouterr().out

    def test_top_takes_strategy_and_memory(self, capsys):
        assert main(["top", "blocks", "--strategy", "mea",
                     "--memory", "linear"]) == 0
        assert "hot productions" in capsys.readouterr().out

    def test_run_takes_builtin_names_and_the_shared_flags(self, capsys):
        """docs/OBSERVABILITY.md "Using it": `repro run rubik --engine
        threaded --parallel 3 --queues 2 --watchdog 5 ...` (on blocks,
        which halts in five cycles)."""
        assert main(["run", "blocks", "--engine", "threaded", "--parallel",
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
                     "--parallel", "2", "--policy", "affinity"]) == 0
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
                     "--parallel", "2"]) == 0
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


class TestTop:
    def test_top_by_production(self, capsys):
        assert main(["top", "blocks"]) == 0
        out = capsys.readouterr().out
        assert "hot productions" in out
        assert "move-block" in out
        assert "hot nodes" not in out  # pruned to the requested table

    def test_top_total_is_the_match_stats_total(self, capsys):
        """The default table is pruned to productions; its total line
        still counts every activation (it printed 0)."""
        from repro.ops5.interpreter import Interpreter
        from repro.programs import load

        assert main(["top", "monkey"]) == 0
        interp = Interpreter(load("monkey"))
        interp.run()
        total = interp.stats.node_activations
        assert total > 0
        assert f"total activations: {total}\n" in capsys.readouterr().out + "\n"

    def test_top_by_phase(self, capsys):
        assert main(["top", "blocks", "--by", "phase"]) == 0
        out = capsys.readouterr().out
        assert "phases (recognize-act cycle):" in out
        assert "match" in out

    def test_top_by_lock_parallel(self, capsys):
        assert main(["top", "blocks", "--by", "lock",
                     "--parallel", "2"]) == 0
        out = capsys.readouterr().out
        assert "lock contention:" in out
        assert "taskcount" in out

    def test_top_limit(self, capsys):
        assert main(["top", "blocks", "--by", "node", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "hot nodes (top 2):" in out


class TestObsVerbs:
    @staticmethod
    def needs_mp():
        from repro.parallel.mp import mp_supported

        if not mp_supported():
            pytest.skip("mp engine needs the 'fork' start method")

    def test_trace_mp_stitched_plus_capture_round_trip(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        self.needs_mp()
        out = tmp_path / "stitched.json"
        capture = tmp_path / "capture.json"
        assert main(["trace", "blocks", "--engine", "mp", "--workers", "2",
                     "--out", str(out), "--fabric-out", str(capture)]) == 0
        assert "(equal)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 100, 101}
        assert any(e.get("ph") == "s" for e in doc["traceEvents"])
        assert doc["otherData"]["stitch_orphans"] == 0
        assert json.loads(capture.read_text())["schema"] == "repro.fabric/2"

        restitched = tmp_path / "restitched.json"
        assert main(["obs", "stitch", str(capture),
                     "--out", str(restitched)]) == 0
        assert json.loads(restitched.read_text()) == doc

    def test_obs_stitch_rejects_bad_capture(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}', encoding="utf-8")
        with pytest.raises(SystemExit, match="obs stitch"):
            main(["obs", "stitch", str(bad), "--out", "/dev/null"])

    @pytest.mark.parametrize("change, message", [
        # Each was a traceback (or an unpositioned unpack error) once.
        ({"workers": {"MainThread": [[1, 2]]}},
         "workers['MainThread'][0]: 5 fields expected, got [1, 2]"),
        ({"workers": {"MainThread": [["soon", 2, "task", "join", None]]}},
         "workers['MainThread'][0][0]: 'soon' is not an integer"),
        ({"nodes": {"seven": ["join", 1, 1, 1, 1]}},
         "nodes['seven']: the key is not a node id"),
        ({"schema": "repro.fabric/1"},
         "schema: is 'repro.fabric/1', this reader takes 'repro.fabric/2'"),
    ])
    def test_obs_stitch_names_what_is_wrong_with_a_capture(
        self, change, message, tmp_path
    ):
        import json

        from repro.obs.events import ObsSnapshot

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**ObsSnapshot().to_json(), **change}))
        with pytest.raises(SystemExit) as exc:
            main(["obs", "stitch", str(bad), "--out", str(tmp_path / "out.json")])
        assert str(exc.value) == f"repro obs stitch: bad capture: {message}"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("verb", ["trace", "top"])
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
        assert {pid for pid, _tid in rows} == {1, 100, 101}
        assert max(rows.values()) <= 5
        assert doc["otherData"]["dropped_spans"] > 0

    def test_obs_flight_snapshot(self, tmp_path, capsys):
        import json

        from repro.obs.flight import validate_flight

        out = tmp_path / "flight.json"
        assert main(["obs", "flight", "blocks", "--out", str(out),
                     "--ring", "64"]) == 0
        assert "flight:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_flight(doc) == []
        assert doc["ring_capacity"] == 64
        assert doc["events"]

    def test_obs_flight_mp_collects_worker_tails(self, tmp_path):
        import json

        from repro.obs.flight import validate_flight

        self.needs_mp()
        out = tmp_path / "flight.json"
        assert main(["obs", "flight", "blocks", "--engine", "mp",
                     "--workers", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_flight(doc) == []
        assert sorted(name.split(" (pid ")[0] for name in doc["workers"]) == [
            "match-0", "match-1"]

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


class TestBench:
    @staticmethod
    def bench_run(out_dir):
        return main([
            "bench", "run", "--scenario", "match-weaver",
            "--out-dir", str(out_dir),
        ])

    def test_run_emits_artifact(self, tmp_path, capsys):
        import json

        from repro.perf.schema import validate_bench_doc

        assert self.bench_run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "bench run suite=custom" in out
        assert "activations" in out
        assert f"artifact: {tmp_path}" in out
        doc = json.loads((tmp_path / "BENCH_custom.json").read_text())
        assert validate_bench_doc(doc) == []
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_custom.json"]

    def test_unchanged_tree_compares_clean(self, tmp_path, capsys):
        """Acceptance: two runs of the same tree -> every metric same."""
        assert self.bench_run(tmp_path / "r1") == 0
        assert self.bench_run(tmp_path / "r2") == 0
        capsys.readouterr()
        assert main(["bench", "compare",
                     "--baseline", str(tmp_path / "r1" / "BENCH_custom.json"),
                     "--current", str(tmp_path / "r2" / "BENCH_custom.json"),
                     ]) == 0
        out = capsys.readouterr().out
        assert "changed=0 added=0 removed=0 skipped=0 same=2" in out
        assert "result: OK" in out

    def test_compare_flags_injected_regression(self, tmp_path, capsys):
        import json

        assert self.bench_run(tmp_path) == 0
        base = tmp_path / "BENCH_custom.json"
        # Inflate the activation count and one node's profile row.
        doc = json.loads(base.read_text())
        entry = doc["scenarios"]["match-weaver"]
        entry["metrics"]["activations"] += 100
        entry["profile"][0][3] += 100
        perturbed = entry["profile"][0][2]
        cur = tmp_path / "perturbed.json"
        cur.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["bench", "compare", "--baseline", str(base),
                     "--current", str(cur)]) == 1
        out = capsys.readouterr().out
        assert "match-weaver.activations" in out
        assert "changed=1" in out
        assert "movers for 'match-weaver'" in out
        assert perturbed in out  # attribution names the perturbed production
        assert "(+100)" in out

    def test_unknown_suite_is_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "run", "--suite", "nightly",
                  "--out-dir", str(tmp_path)])
        assert "unknown suite" in str(exc.value)

    def test_unknown_scenario_is_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "run", "--scenario", "no-such",
                  "--out-dir", str(tmp_path)])
        assert "unknown scenarios" in str(exc.value)

    def test_compare_without_history_is_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare", "--out-dir", str(tmp_path),
                  "--baseline", str(tmp_path / "absent.json")])
        assert "cannot read" in str(exc.value)

    def test_removed_verb_and_flags_are_gone(self, capsys):
        for argv in (["bench", "report"],
                     ["bench", "run", "--repeat", "3"],
                     ["bench", "run", "--no-trajectory"],
                     ["bench", "compare", "--stable-only"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        capsys.readouterr()
