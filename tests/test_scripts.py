"""Smoke tests for the experiment scripts under scripts/."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", ["dynamics_convergence.py", "reduction_sizes.py"])
def test_script_runs(name):
    assert run_script(name)


def test_poa_lower_bounds_match_closed_form():
    """The crowding family's PoA is n/m for n < 2m and (2m-1)/m after."""
    rows = [line.split() for line in run_script("poa_lower_bounds.py").splitlines()[1:]]
    assert rows
    for n, m, _, _, ratio in rows:
        n, m = int(n), int(m)
        expected = Fraction(n, m) if n < 2 * m else Fraction(2 * m - 1, m)
        assert Fraction(ratio) == expected, (n, m)
