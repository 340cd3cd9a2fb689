"""The README's runnable claims: the Quick start block and the seed-lane
legend."""

import contextlib
import io
import re
from pathlib import Path

from glemarket.cli import _LANE_LEGEND

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
