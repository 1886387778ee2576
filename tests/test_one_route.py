"""Guards beside ``tests/test_front_door.py``: the routes deleted for
carrying no traffic stay deleted.

* a trace has one route -- ``repro trace --out`` writes the Chrome
  trace; there is no snapshot capture and no offline ``obs stitch``;
* each job has one verb -- ``trace`` prints every hot-spot table (no
  ``top``), ``run --flight-dump`` writes the flight ring and ``loadgen
  --meter`` reconciles the SLO meter (no ``obs`` group), and
  ``--engine threaded --workers K`` is the one spelling (no
  ``--parallel K``);
* the paper's counts have one gate each -- the pins beside each
  subsystem's tests and ``bench/``'s goldens; there is no ``repro bench``
  group and no ``repro.perf`` package;
* dispatch has one rule -- the control process deals roots over the
  queues in turn, a worker pushes home, an idle worker steals; there is
  no policy registry, no ``--policy`` engine flag and no ``policyck``
  battery;
* each diagnostic question has one document -- a watchdog stall rides
  the flight snapshot (``run --flight-dump``; no ``--watchdog-dump``),
  and serve ``stats`` carries the match profile and the meter (no
  ``profile`` or ``meter`` request).
"""

import asyncio
import importlib

import pytest

from repro import cli


def help_text(capsys, *path):
    with pytest.raises(SystemExit) as exc:
        cli.main([*path, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["top", "blocks"],
    ["obs", "flight", "blocks"],
    ["run", "blocks", "--parallel", "2"],
], ids=" ".join)
def test_each_job_has_one_verb(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2                  # a usage error
    capsys.readouterr()
    assert "obs" not in cli.VERBS and "top" not in cli.VERBS


def test_trace_has_no_capture_flag(capsys):
    text = help_text(capsys, "trace")
    assert "--out" in text
    assert "--fabric-out" not in text


def test_no_bench_group_and_no_perf_package(capsys):
    text = help_text(capsys)
    assert "bench" not in text
    with pytest.raises(ImportError):
        importlib.import_module("repro.perf")


def test_dispatch_has_one_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "blocks", "--engine", "threaded", "--policy", "affinity"])
    assert exc.value.code == 2                  # a usage error
    assert "unrecognized arguments: --policy" in capsys.readouterr().err
    with pytest.raises(ImportError):
        importlib.import_module("repro.parallel.policy")
    text = help_text(capsys, "check")
    assert "one of: schedck, corgick\n" in text
    assert set(cli.load(cli.VERBS, "check")) == {"schedck", "corgick"}


def test_each_question_has_one_document(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "blocks", "--engine", "threaded", "--watchdog", "5",
                  "--watchdog-dump", "x"])
    assert exc.value.code == 2                  # a usage error
    assert "unrecognized arguments: --watchdog-dump" in capsys.readouterr().err
    with pytest.raises(ImportError):
        from repro.obs.watchdog import validate_bundle  # noqa: F401

    from repro.serve.protocol import MAX_LINE_BYTES
    from repro.serve.server import ReproServer

    from .serve.conftest import request

    async def ask(*types):
        server = ReproServer()
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
        try:
            return [await request(reader, writer, {"id": 1, "type": t}) for t in types]
        finally:
            writer.close()
            await server.shutdown()

    for reply in asyncio.run(ask("profile", "meter")):
        assert reply["error"]["code"] == "bad-request"
        assert "unknown request type" in reply["error"]["message"]
