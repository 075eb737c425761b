"""The CLI command table: which flags each command takes, needs and refuses."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from netwattzap.cli import build_parser, main

from conftest import build_cli_workspace

ROOT = Path(__file__).resolve().parents[1]

# Every (command, flag) pair the parser accepted and ignored before each
# command took only its own flags; written out, not read from COMMANDS.
REFUSED = [
    ("validate", "--time-limit"),
    ("overlap", "--scenario"),
    ("overlap", "--problem"),
    ("overlap", "--seed"),
    ("overlap", "--time-limit"),
    ("failure", "--problem"),
    ("failure", "--seed"),
    ("failure", "--time-limit"),
    ("connectivity", "--stats"),
    ("connectivity", "--components"),
    ("connectivity", "--problem"),
    ("connectivity", "--seed"),
    ("connectivity", "--time-limit"),
    ("place", "--stats"),
    ("place", "--components"),
    ("place", "--nodes"),
    ("place", "--geo"),
    ("place", "--links"),
    ("place", "--scenario"),
    ("place", "--strict"),
    ("place", "--seed"),
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_table")
    build_cli_workspace(root)
    return root


@pytest.mark.parametrize("command, flag", REFUSED)
def test_flag_the_command_does_not_take_is_a_usage_error(capsys, command, flag):
    argv = [command, flag] if flag == "--strict" else [command, flag, "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


REQUIRED = {
    "validate": [],
    "overlap": ["--wasg", "{ws}/wasg.geojson"],
    "failure": ["--wasg", "{ws}/wasg.geojson", "--scenario", "{ws}/scenario_regional.json"],
}


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize(
    "command, extra, message",
    [
        (command, [flag, f"{{ws}}/topo.{flag[2:]}"], f"{flag} requires --nodes")
        for command in REQUIRED
        for flag in ("--geo", "--links")
    ]
    + [
        ("overlap", ["--metric", "ixp"], "--metric requires --cumulative"),
        ("overlap", ["--cumulative", "0.5"], "--cumulative requires --metric"),
    ],
)
def test_flag_without_the_flag_it_needs(workspace, tmp_path, capsys, command, extra, message, to_file):
    out = tmp_path / "r.json"
    args = [arg.format(ws=workspace) for arg in [command, *REQUIRED[command], *extra]]
    code = main(args + (["--out", str(out)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not out.exists()
    assert captured.err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_time_limit_must_be_non_negative(workspace, capsys, limit):
    code = main(["place", "--problem", str(workspace / "problem.json"), "--time-limit", limit])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError: ")
    assert captured.err.count("\n") == 1


def test_module_entry_point_refuses_a_foreign_flag(workspace):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "netwattzap.cli", "place", "--problem", str(workspace / "problem.json"), "--nodes", "x"],
        capture_output=True,
        text=True,
        env=env,
        encoding="utf-8",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "unrecognized arguments: --nodes x" in result.stderr


def _readme_command_lines() -> list[str]:
    """Every ``netwattzap ...`` line of the README's "Command line" examples, continuations joined."""
    section = ROOT.joinpath("README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = []
    for block in re.findall(r"```bash\n(.*?)```", section, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("netwattzap "):
                lines.append(line)
    return lines


def test_readme_examples_cover_every_command():
    commands = {shlex.split(line)[1] for line in _readme_command_lines()}
    assert commands == {"validate", "overlap", "failure", "connectivity", "place"}


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_example_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
