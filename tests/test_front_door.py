"""Guards that keep the front door one door.

* every ``python -m repro ...`` line in the docs and CI parses against
  the live verb parsers;
* ``cli.py`` stays a table plus one dispatcher (an ``ast`` scan in the
  style of ``tests/rete/test_kernel.py``), the engine flags stay
  declared once, and every registry entry resolves to a ``Verb``;
* resolving ``serve`` imports none of the heavy packages (``bench/``
  starts a server process per ``serve-churn`` repetition).
"""

import ast
import re
import shlex
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from repro import cli

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def walk(registry, prefix=()):
    """Every ``(path, module, summary, entry)`` of a registry, groups
    included."""
    for name, (module, summary) in registry.items():
        entry = cli.load(registry, name)
        yield prefix + (name,), module, summary, entry
        if isinstance(entry, dict):
            yield from walk(entry, prefix + (name,))


# ---------------------------------------------------------------------------
# (i) the documented command lines parse

DOCUMENTS = [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / ".github" / "workflows" / "ci.yml",
]
SYNOPSIS = ("[", "<", "...", "…")
SHELL_OPERATORS = {">", ">>", "|", "&", "&&", "2>&1", ";", "<"}


def command_argv(command):
    """The argv of one ``python -m repro ...`` command: its words up to
    the first shell operator (a redirect ``< file`` and a process
    substitution ``<(...)`` included), or None for a synopsis — a word
    of the argv holding a SYNOPSIS mark, such as ``<battery>``.  Words
    are read one at a time, so what follows the operator is never
    parsed."""
    words = shlex.shlex(command, posix=True)
    words.whitespace_split = True
    argv = []
    for token in islice(words, 3, None):
        if token in SHELL_OPERATORS or token.startswith("<("):
            break
        if any(mark in token for mark in SYNOPSIS):
            return None
        argv.append(token.rstrip(")").rstrip(","))
    return argv


def documented_commands():
    for doc in DOCUMENTS:
        # A trailing backslash continues the command on the next line.
        text = re.sub(r"\\\n", " \x00", doc.read_text(encoding="utf-8"))
        lineno = 0
        for line in text.splitlines():
            lineno += 1
            continued, line = line.count("\x00"), line.replace("\x00", "")
            for chunk in re.split(r"(?=python -m repro)", line)[1:]:
                argv = command_argv(chunk.split("`")[0])
                if argv is not None:
                    yield pytest.param(argv, id=f"{doc.name}:{lineno}:{' '.join(argv)}")
            lineno += continued


def test_the_documents_hold_commands():
    assert len(list(documented_commands())) >= 40


@pytest.mark.parametrize("line, argv", [
    ("python -m repro tables task-durations | diff <(cat x; echo) -", ["tables", "task-durations"]),
    ("python -m repro run blocks < in.txt", ["run", "blocks"]),
    ("python -m repro run blocks <(printf '(make a') x", ["run", "blocks"]),
    ("python -m repro check <battery> --seed 1", None),
    ("python -m repro run blocks --seed N ...", None),
])
def test_argv_stops_at_shell_operators_and_synopses_are_skipped(line, argv):
    """A synopsis mark counts only inside the argv: a real command piped
    into ``diff <(...)`` or fed by ``< file`` gets an argv, and so a
    test; ``check <battery>`` is still a synopsis."""
    assert command_argv(line) == argv


@pytest.mark.parametrize("argv", documented_commands())
def test_documented_commands_parse(argv, capsys):
    try:
        cli.parse(cli.VERBS, "repro", argv)
    except SystemExit as exc:  # `--help` lines exit 0 from the parser
        assert exc.code == 0, capsys.readouterr().err


# ---------------------------------------------------------------------------
# (ii) architecture: a table and one dispatcher; flags declared once


def calls(tree, name):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name == getattr(node.func, "attr", getattr(node.func, "id", None))
    ]


class TestArchitecture:
    def test_cli_is_a_table_and_one_dispatcher(self):
        path = SRC / "cli.py"
        assert len(path.read_text().splitlines()) <= 150
        tree = ast.parse(path.read_text())
        functions = [
            n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
        ]
        assert not [name for name in functions if name.startswith("cmd_")]
        # The verb slot is the only argument cli.py declares.
        assert len(calls(tree, "add_argument")) == 1
        # No verb-specific import: stdlib only, nothing from the package.
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not node.module.startswith("repro")
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("repro") for a in node.names)

    def test_engine_flags_are_declared_in_one_file(self):
        declaring = [
            path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if any(
                isinstance(node, ast.Constant) and node.value == "--engine"
                for node in ast.walk(ast.parse(path.read_text()))
            )
        ]
        assert declaring == ["engines.py"]

    def test_one_engine_from_args_and_no_verb_builds_a_matcher(self):
        definitions = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            definitions += [
                path.name for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "engine_from_args"
            ]
        assert definitions == ["engines.py"]
        for module in {module for _p, module, _s, _e in walk(cli.VERBS)}:
            path = Path(sys.modules[module].__file__)
            assert not calls(ast.parse(path.read_text()), "make_matcher"), module

    def test_every_registry_entry_is_a_verb_with_help(self):
        paths = []
        for path, _module, summary, entry in walk(cli.VERBS):
            paths.append(" ".join(path))
            assert summary.strip(), path
            if not isinstance(entry, dict):
                assert isinstance(entry, cli.Verb), path
                assert entry.name == path[-1]
                assert entry.help.strip(), path
        assert {"run", "trace", "check schedck", "check corgick", "serve",
                "loadgen"} <= set(paths)

    @pytest.mark.parametrize(
        "path", [(), *(path for path, *_rest in walk(cli.VERBS))],
        ids=lambda path: " ".join(path) or "repro",
    )
    def test_every_verb_answers_help(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*path, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")


# ---------------------------------------------------------------------------
# (iii) serve start-up stays light

HEAVY = ("repro.check", "repro.schedck", "repro.simulator", "repro.harness")


def test_resolving_serve_imports_no_heavy_package():
    probe = (
        "import sys\n"
        "from repro import cli\n"
        "try:\n"
        "    cli.main(['serve', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        f"heavy = [m for m in sys.modules if m.startswith({HEAVY!r})]\n"
        "print('HEAVY', heavy, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro serve" in proc.stdout
    assert "HEAVY []" in proc.stderr
