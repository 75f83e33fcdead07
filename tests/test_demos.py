"""Every demo runs to completion at its smallest argument."""

import os
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# demo -> smallest command-line argument it takes ([] when it takes none)
DEMOS = {
    "cotangent_maps.py": [],
    "flatness_suite.py": ["1"],
    "hilbert_comparison.py": ["0"],
    "tour_deformed_ideals.py": [],
}


def test_every_demo_is_listed():
    found = {f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")}
    assert found == set(DEMOS)


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo), *DEMOS[demo]],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
