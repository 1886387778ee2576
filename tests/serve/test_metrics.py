"""LatencyWindow percentile boundaries and the shared nearest-rank
helper (the issue's satellite: p=0, p=100, single sample, window
wrap-around, and out-of-range validation).  The meter's accounts go
through the same helper and are pinned to it here."""

import pytest

from repro.obs import meter
from repro.serve.metrics import LatencyWindow, nearest_rank


class TestNearestRank:
    def test_known_values(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(ordered, 50) == 2.0
        assert nearest_rank(ordered, 75) == 3.0
        assert nearest_rank(ordered, 76) == 4.0

    def test_p0_is_minimum(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0) == 1.0

    def test_p100_is_maximum(self):
        assert nearest_rank([1.0, 2.0, 3.0], 100) == 3.0

    def test_single_sample_every_percentile(self):
        for p in (0, 1, 50, 99, 100):
            assert nearest_rank([7.0], p) == 7.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], -1)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 100.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)


class TestMeterPath:
    def test_there_is_one_nearest_rank(self):
        assert meter.nearest_rank is nearest_rank

    def test_empty_account_reports_zero(self):
        assert meter.MeterAccount().percentiles() == {
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }

    def test_single_sample_every_percentile(self):
        acct = meter.MeterAccount()
        acct.observe_txn(0.25)
        assert set(acct.percentiles().values()) == {250.0}

    def test_agrees_with_the_latency_window(self):
        acct, win = meter.MeterAccount(), LatencyWindow()
        for ms in (30, 10, 40, 20):
            acct.observe_txn(ms / 1e3)
            win.record(ms / 1e3)
        for p in (50, 95, 99):
            assert acct.percentiles()[f"p{p}_ms"] == pytest.approx(
                win.percentile(p) * 1e3
            )


class TestLatencyWindow:
    def test_empty_window_is_zero(self):
        win = LatencyWindow()
        assert win.percentile(50) == 0.0
        assert win.summary()["count"] == 0
        assert win.summary()["window"] == 0

    def test_empty_window_still_validates_p(self):
        with pytest.raises(ValueError):
            LatencyWindow().percentile(101)

    def test_out_of_range_raises(self):
        win = LatencyWindow()
        win.record(1.0)
        with pytest.raises(ValueError):
            win.percentile(-5)
        with pytest.raises(ValueError):
            win.percentile(200)

    def test_single_sample(self):
        win = LatencyWindow()
        win.record(0.25)
        assert win.percentile(0) == 0.25
        assert win.percentile(50) == 0.25
        assert win.percentile(100) == 0.25

    def test_p0_and_p100_bounds(self):
        win = LatencyWindow()
        for v in (0.3, 0.1, 0.2):
            win.record(v)
        assert win.percentile(0) == 0.1
        assert win.percentile(100) == 0.3

    def test_window_wrap_around_evicts_oldest(self):
        win = LatencyWindow(capacity=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            win.record(v)
        # Ring holds the last 4 samples: 3, 4, 5, 6.
        assert win.window_size == 4
        assert win.percentile(0) == 3.0
        assert win.percentile(100) == 6.0
        assert win.count == 6  # lifetime count keeps the full history

    def test_summary_mean_uses_lifetime_total(self):
        win = LatencyWindow(capacity=2)
        for v in (1.0, 1.0, 4.0):
            win.record(v)
        summary = win.summary()
        assert summary["count"] == 3
        assert summary["window"] == 2
        assert summary["mean_ms"] == pytest.approx(2000.0)
