"""Guards beside ``tests/test_front_door.py``: the routes deleted for
carrying no traffic stay deleted.

* a trace has one route -- ``repro trace --out`` writes the Chrome
  trace; there is no snapshot capture and no offline ``obs stitch``;
* the counter gate has one suite -- ``repro bench run`` runs the whole
  registry, so it takes no ``--suite``.
"""

import pytest

from repro import cli


def help_text(capsys, *path):
    with pytest.raises(SystemExit) as exc:
        cli.main([*path, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_obs_offers_exactly_flight_and_slo(capsys):
    text = help_text(capsys, "obs")
    assert "one of: flight, slo\n" in text
    assert set(cli.load(cli.VERBS, "obs")) == {"flight", "slo"}


def test_trace_has_no_capture_flag(capsys):
    text = help_text(capsys, "trace")
    assert "--out" in text
    assert "--fabric-out" not in text


def test_bench_run_has_no_suite_flag(capsys):
    text = help_text(capsys, "bench", "run")
    assert "--scenario" in text
    assert "--suite" not in text
