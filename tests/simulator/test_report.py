"""Tests for the speed-up ladder over a recorded trace."""

import pytest

from repro.ops5.interpreter import Interpreter
from repro.rete.trace import TraceRecorder
from repro.simulator.report import speedup_curve
from tests.conftest import FIND_COLORED_BLOCK


@pytest.fixture(scope="module")
def trace():
    recorder = TraceRecorder()
    Interpreter(FIND_COLORED_BLOCK, recorder=recorder).run()
    return recorder.trace


class TestSpeedupCurve:
    def test_curve_shape(self, trace):
        curve = speedup_curve(trace, processes=(1, 3, 5))
        assert len(curve.speedups) == 3
        assert curve.speedups[0] == pytest.approx(1.0, abs=0.15)
        assert curve.saturation >= curve.speedups[0]
        assert curve.baseline_seconds > 0

    def test_lock_scheme_passthrough(self, trace):
        curve = speedup_curve(trace, processes=(1,), lock_scheme="mrsw")
        assert curve.lock_scheme == "mrsw"
