"""The README's library quick start and CLI block run as written, so
that the API and the flags they show stay in step with the package's."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qprolate.cli import READS, _build_parser

ROOT = Path(__file__).resolve().parent.parent


def _block(heading: str, lang: str) -> str:
    section = (ROOT / "README.md").read_text().split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _quick_start() -> str:
    return _block("## Library quick start", "python")


def _cli_lines() -> list[list[str]]:
    return [shlex.split(line, comments=True)
            for line in _block("## CLI", "sh").splitlines() if line.startswith("qprolate ")]


def test_readme_quick_start_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", _quick_start()], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[1])
def test_readme_cli_line_runs(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    (tmp_path / "data.txt").write_text("0 1.0\n3 -0.5\n")
    run = subprocess.run([sys.executable, "-m", "qprolate.cli", *argv[1:]], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_readme_cli_block_runs_each_command():
    assert sorted(argv[1] for argv in _cli_lines()) == sorted(READS)


def test_subparser_flags_are_the_settings_read():
    # each command takes --config and one flag per setting it reads: no
    # flag of a setting it ignores
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert set(commands) == set(READS)
    for command, sp in commands.items():
        dests = {a.dest for a in sp._actions} - {"help"}
        assert dests == {*READS[command], "config"}, command
