"""The committed outputs and CLI gates: EXPERIMENTS.md equals a fresh
default-pricing render, the static analyzer finds nothing new on any
bundled program, the resilience campaign runs, and the installed numpy
meets the pyproject floor."""

import re
from pathlib import Path

import numpy
import pytest

from repro.harness.cli import _render_experiments_md, main

ROOT = Path(__file__).resolve().parents[2]


def test_experiments_md_is_a_fresh_render():
    # the CLI prints a trailing newline; regenerate with
    # `repro-lab experiments-md > EXPERIMENTS.md`
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    assert _render_experiments_md() + "\n" == committed


@pytest.mark.parametrize("cluster", ["cte-arm", "mn4"])
def test_analyze_all_strict(cluster):
    assert main(["analyze", "all", "--cluster", cluster, "--nodes", "48",
                 "--strict"]) == 0


def test_resilience_smoke():
    assert main(["resilience", "--nodes", "4", "--intensity", "1",
                 "--steps", "5", "--json"]) == 0


def test_numpy_meets_pyproject_floor():
    def version(v):
        return tuple(int(x) for x in re.findall(r"\d+", v)[:3])

    floor = re.search(r'"numpy\s*>=\s*([\d.]+)"',
                      (ROOT / "pyproject.toml").read_text()).group(1)
    assert version(numpy.__version__) >= version(floor)
