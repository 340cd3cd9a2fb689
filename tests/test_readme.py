"""The README's runnable claims: the Quick start block, the Command line
block and the seed-lane legend."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from glemarket.cli import _LANE_LEGEND, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_quick_start_runs_and_recovers_a_neutral_stock():
    block = README.split("## Quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README quick start", "exec"), scope)
    report = scope["report"]
    assert report.stock_class.value == "neutral"
    assert abs(report.theta - 1.0) <= 0.3


def test_lane_sentence_is_the_rendered_legend():
    assert re.findall(r"`(seed lanes:[^`]*)`", README) == [_LANE_LEGEND]


def test_command_line_block_runs(tmp_path, monkeypatch):
    # each `glemarket ...` command, continuation lines joined and comments
    # dropped, in order in one fresh directory (estimate reads simulate's prices)
    block = README.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "glemarket" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv[1:]) == 0, argv
