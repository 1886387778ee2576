"""The ``repro`` console script and ``python -m repro`` must agree."""

import subprocess
import sys
from pathlib import Path

import tomllib

REPO = Path(__file__).resolve().parents[2]


def _script_target():
    with open(REPO / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    return meta["project"]["scripts"]["repro"]


def test_console_script_points_at_cli_main():
    assert _script_target() == "repro.cli:main"


def test_script_target_resolves_to_the_module_entry():
    modname, _, attr = _script_target().partition(":")
    module = __import__(modname, fromlist=[attr])
    target = getattr(module, attr)
    # `python -m repro` (see src/repro/__main__.py) calls the same
    # function, so both entry points share flags and exit codes.
    from repro.cli import main

    assert target is main
    main_py = (REPO / "src" / "repro" / "__main__.py").read_text()
    assert "from .cli import main" in main_py
    assert "sys.exit(main())" in main_py


def test_python_dash_m_repro_help():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: repro")
    for verb in ("run", "serve", "loadgen", "check"):
        assert verb in proc.stdout
