"""Smoke test: every narrative script under demos/, and README's quick-start
block, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_all_demos_found():
    assert len(DEMOS) == 6


def quick_start() -> str:
    """The README's ```python block."""
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = ["-c", quick_start()] if demo == README else [str(demo)]
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
