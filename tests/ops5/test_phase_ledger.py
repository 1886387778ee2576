"""Engines count, the session charges — checked, not asserted.

Two guards:

* **Structure.**  An ``ast`` scan of ``src/repro`` proves that nothing
  below the serve layer knows the meter exists, that the interpreter
  calls each phase once (no timed twin of a call beside an untimed
  one), and that no engine keeps a private match clock.
* **One ledger.**  On every engine the interpreter's ``phase_ns`` stays
  empty while nobody asked for time, and fills while ``timed``.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.engines import ENGINE_NAMES
from repro.ops5.interpreter import Interpreter

from tests.conftest import FIND_COLORED_BLOCK

SRC = Path(repro.__file__).parent

#: The packages under the serve layer: they count, they never charge.
ENGINE_LAYERS = ("ops5", "rete", "corgi", "parallel")


def _engine_modules():
    for layer in ENGINE_LAYERS:
        for path in sorted((SRC / layer).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _imports_meter(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.endswith("obs.meter") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.endswith("obs.meter") or (
            module.endswith("obs")
            and any(alias.name == "meter" for alias in node.names)
        )
    return False


class TestStructure:
    def test_no_engine_layer_imports_the_meter(self):
        offenders = [
            f"{rel}:{node.lineno}"
            for rel, tree in _engine_modules()
            for node in ast.walk(tree)
            if _imports_meter(node)
        ]
        assert offenders == []
        # Non-vacuity: the scan does recognise the serve layer's import.
        session = ast.parse((SRC / "serve/session.py").read_text())
        assert any(_imports_meter(node) for node in ast.walk(session))

    def test_the_interpreter_calls_each_phase_once(self):
        tree = ast.parse((SRC / "ops5/interpreter.py").read_text())
        [cls] = [n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == "Interpreter"]
        calls = [
            node.func.attr
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and fn.name in ("step", "_apply_changes")
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ]
        for phase_call in ("select", "execute", "process_changes"):
            assert calls.count(phase_call) == 1, phase_call

    def test_no_engine_keeps_a_match_clock(self):
        offenders = [
            f"{rel}:{node.lineno}"
            for rel, tree in _engine_modules()
            if not rel.startswith("ops5/")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "match_seconds"
            and isinstance(node.ctx, ast.Store)
        ]
        assert offenders == []


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_ledger_is_empty_untimed_and_fills_timed(engine):
    with Interpreter(FIND_COLORED_BLOCK, engine=engine) as interp:
        assert interp.step() is not None
        assert interp.phase_ns == {"match": 0, "select": 0, "act": 0}
        assert not interp.matcher.timed
        interp.timed = True
        assert interp.step() is not None
        assert interp.matcher.timed
        assert all(ns > 0 for ns in interp.phase_ns.values()), interp.phase_ns
