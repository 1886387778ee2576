"""Tests for the experiment harness: rendering, workload caching, and
paper-data integrity."""

from pathlib import Path

import pytest

from repro.harness import paperdata
from repro.harness.tables import paired_row, render_table
from repro.harness.workloads import (
    BENCH_SIZES,
    clear_caches,
    program_source,
    sim,
    traced_run,
)


class TestPaperData:
    def test_programs_consistent_across_tables(self):
        for table in (
            paperdata.TABLE_4_1,
            paperdata.TABLE_4_2,
            paperdata.TABLE_4_3,
            paperdata.TABLE_4_4,
            paperdata.TABLE_4_5,
            paperdata.TABLE_4_6,
            paperdata.TABLE_4_7,
            paperdata.TABLE_4_8,
            paperdata.TABLE_4_9,
        ):
            assert set(table) == set(paperdata.PROGRAMS)

    def test_speedup_vectors_match_proc_columns(self):
        for table in (paperdata.TABLE_4_5, paperdata.TABLE_4_6, paperdata.TABLE_4_8):
            for entry in table.values():
                assert len(entry["speedups"]) == len(paperdata.PROCS)

    def test_headline_numbers(self):
        # Spot checks against the paper's text.
        assert paperdata.TABLE_4_6["rubik"]["speedups"][-1] == 11.42
        assert paperdata.TABLE_4_4["tourney"]["speedup"] == 24.6
        assert paperdata.RULE_COUNTS == {"weaver": 637, "rubik": 70, "tourney": 17}

    def test_queue_columns(self):
        assert paperdata.QUEUES_MULTI == (1, 2, 4, 8, 8, 8)


class TestRendering:
    def test_render_alignment(self):
        out = render_table("T", ["col", "value"], [["a", 1.5], ["bb", 22]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2] and "|" in lines[2]
        data_lines = [lines[2]] + lines[4:]
        assert len({line.index("|") for line in data_lines}) == 1

    def test_float_formatting(self):
        out = render_table("T", ["x"], [[1.23456]])
        assert "1.23" in out and "1.2345" not in out

    def test_paired_row(self):
        rows = paired_row("prog", [1.0], [2.0])
        assert rows[0][0] == "prog (paper)"
        assert rows[1][0] == "prog (ours)"


class TestWorkloads:
    def test_program_source_known_names(self):
        for name in BENCH_SIZES:
            assert "(p " in program_source(name)

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            program_source("xcon")

    def test_traced_run_memoized(self):
        a = traced_run("tourney")
        b = traced_run("tourney")
        assert a is b
        assert a.trace.n_tasks > 0

    def test_sim_memoized(self):
        a = sim("tourney", n_match=2)
        b = sim("tourney", n_match=2)
        assert a is b

    def test_clear_caches(self):
        a = traced_run("tourney")
        clear_caches()
        b = traced_run("tourney")
        assert a is not b


REPO = Path(__file__).resolve().parents[2]


def _ours_rows(text):
    """``{program: [cells]}`` of the ``(ours)`` rows of one ``|`` table."""
    rows = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0].endswith("(ours)"):
            rows[cells[0].split()[0]] = cells[1:]
    return rows


@pytest.mark.parametrize("table", ["4-5", "4-6", "4-7"])
def test_experiments_md_quotes_the_committed_report(table):
    """A file compare, no simulation: the simulated tables are
    deterministic, ``benchmarks/reports/`` holds what the code prints
    (CI regenerates and diffs it), and EXPERIMENTS.md must quote it."""
    doc = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = doc.split(f"## Table {table} ")[1].split("\n## ")[0]
    quoted = _ours_rows(section)
    report = _ours_rows(
        (REPO / "benchmarks" / "reports" / f"table_{table.replace('-', '_')}.txt")
        .read_text(encoding="utf-8")
    )
    assert set(quoted) == set(report) == {"weaver", "rubik", "tourney"}
    for program, cells in quoted.items():
        # The report's 4-5 / 4-6 rows lead with a uniprocessor-seconds
        # column the document leaves out; the six 1+k columns are last.
        assert cells == report[program][-6:], (table, program)
