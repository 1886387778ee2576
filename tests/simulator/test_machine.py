"""Unit tests for the Multimax cost model."""

import pytest

from repro.rete.trace import TaskRecord
from repro.simulator.machine import (
    DEFAULT_CONFIG,
    MachineConfig,
    alpha_tasks,
    task_cost,
    task_cost_parts,
)


def task(kind="join", opp=0, same=0, children=0, line=0) -> TaskRecord:
    return TaskRecord(
        tid=0, parent=-1, kind=kind, node_id=1, side="L", sign=1,
        line=line, opp_examined=opp, same_examined=same,
        n_children=children, change_seq=0,
    )


class TestConfig:
    def test_seconds_conversion(self):
        cfg = MachineConfig(mips=0.75)
        assert cfg.seconds(750_000) == pytest.approx(1.0)

    def test_with_overrides(self):
        cfg = DEFAULT_CONFIG.with_overrides(join_base=99)
        assert cfg.join_base == 99
        assert DEFAULT_CONFIG.join_base != 99  # immutable original

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.join_base = 1


class TestTaskCost:
    def test_terminal_cost(self):
        assert task_cost(task("term"), DEFAULT_CONFIG) == DEFAULT_CONFIG.term_cost

    def test_join_scales_with_features(self):
        base = task_cost(task(), DEFAULT_CONFIG)
        with_scan = task_cost(task(opp=5), DEFAULT_CONFIG)
        with_kids = task_cost(task(children=2), DEFAULT_CONFIG)
        assert with_scan == base + 5 * DEFAULT_CONFIG.per_opp_examined
        assert with_kids == base + 2 * DEFAULT_CONFIG.per_child_build

    def test_not_node_extra(self):
        assert task_cost(task("not"), DEFAULT_CONFIG) == (
            task_cost(task("join"), DEFAULT_CONFIG) + DEFAULT_CONFIG.not_extra
        )

    def test_parts_sum_to_total(self):
        for t in (task(), task(opp=7, same=3, children=2), task("not", opp=1)):
            update, scan, build = task_cost_parts(t, DEFAULT_CONFIG)
            assert update + scan + build == task_cost(t, DEFAULT_CONFIG)

    def test_paper_range(self):
        # A typical activation lands in the paper's 100-700 instruction
        # band once it examines a handful of tokens.
        t = task(opp=8, same=2, children=2)
        assert 100 <= task_cost(t, DEFAULT_CONFIG) <= 700


class TestAlphaTasks:
    def test_single_group_for_small_change(self):
        groups = alpha_tasks(n_const_tests=5, n_children=3, config=DEFAULT_CONFIG)
        assert len(groups) == 1
        cost, kids = groups[0]
        assert cost == (
            DEFAULT_CONFIG.change_dispatch
            + 5 * DEFAULT_CONFIG.const_test
            + DEFAULT_CONFIG.alpha_group_overhead
        )

    def test_splits_by_const_tests(self):
        groups = alpha_tasks(40, 0, DEFAULT_CONFIG)  # group size 16
        assert len(groups) == 3

    def test_splits_by_fanout(self):
        cfg = DEFAULT_CONFIG.with_overrides(alpha_fanout_split=10)
        groups = alpha_tasks(4, 35, cfg)
        assert len(groups) == 4

    def test_children_distributed(self):
        groups = alpha_tasks(40, 10, DEFAULT_CONFIG)
        assert sum(k for _c, k in groups) == 10

    def test_zero_tests(self):
        groups = alpha_tasks(0, 0, DEFAULT_CONFIG)
        assert len(groups) == 1
