"""The README runs as written: its Python quick tour, and its command lines
over `fixtures/` with the report on stdout as JSON and as CSV."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import openmult
from openmult.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ```lang code block after the line `heading`."""
    return re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, README.index(heading)).group(1)


def test_quick_tour_runs():
    namespace = {}
    exec(compile(_block("## Library quick tour", "python"), "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.residual <= 1e-9 and max(result.bound1, result.bound2) <= 0.7


FIXTURE_LINES = [shlex.split(line) for line in _block("Ready-made inputs live in `fixtures/`", "sh").splitlines()]


def test_three_fixture_lines():
    assert [argv[:2] for argv in FIXTURE_LINES] == [
        ["openmult", "scheme"], ["openmult", "factor-interval"], ["openmult", "factor-graph"]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", FIXTURE_LINES, ids=lambda argv: argv[1])
def test_fixture_line_on_stdout(argv, fmt):
    # `openmult` is the console script for openmult.cli:main
    env = dict(os.environ, PYTHONPATH=str(Path(openmult.__file__).resolve().parent.parent))
    cmd = [sys.executable, "-m", "openmult.cli", *argv[1:], "--format", fmt]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if fmt == "json":
        assert json.loads(proc.stdout)["command"] == argv[1]
    else:
        assert proc.stdout.count(b"\n") == proc.stdout.count(b"\r\n") > 1  # csv.writer's line ends
        rows = list(csv.reader(io.StringIO(proc.stdout.decode("utf-8"), newline="")))
        assert tuple(rows[0]) == COMMANDS[argv[1]].header
        assert all(len(row) == len(rows[0]) for row in rows)
