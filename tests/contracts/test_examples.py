"""Every runnable study under ``examples/`` exits 0 in a fresh
interpreter: each prints numbers it validates itself and fails on a
broken import, a moved name or a check that no longer holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_all_examples_are_collected():
    assert len(EXAMPLES) == 12


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_zero(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
