"""Smoke tests for the experiment scripts under scripts/."""

import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import ROOT, src_env

SCRIPTS = ["dynamics_convergence.py", "poa_lower_bounds.py", "reduction_sizes.py"]


def run_script(name: str) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", ["dynamics_convergence.py", "reduction_sizes.py"])
def test_script_runs(name):
    assert run_script(name)


def test_poa_lower_bounds_match_closed_form():
    """The crowding family's PoA is n/m for n < 2m and (2m-1)/m after; its
    worst equilibrium piles everyone onto one set, of welfare m."""
    rows = [line.split() for line in run_script("poa_lower_bounds.py").splitlines()[1:]]
    assert rows
    for n, m, opt, worst, ratio in rows:
        n, m, opt, worst = int(n), int(m), int(opt), int(worst)
        expected = Fraction(n, m) if n < 2 * m else Fraction(2 * m - 1, m)
        assert Fraction(ratio) == expected, (n, m)
        assert worst == m and opt == Fraction(ratio) * worst, (n, m)


@pytest.mark.parametrize("eps", ["0", "-1/2", "abc", "1/0"])
def test_dynamics_convergence_rejects_bad_eps(eps):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dynamics_convergence.py"),
         f"--eps={eps}"],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr, done.stderr
    assert "argument --eps" in done.stderr


@pytest.mark.parametrize("arg", ["--instances=0", "--instances=-1", "--agents=0",
                                 "--nodes=0", "--nodes=x"])
def test_dynamics_convergence_rejects_bad_sizes(arg):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dynamics_convergence.py"), arg],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr, done.stderr
    assert f"argument {arg.split('=')[0]}" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_exits_quietly_when_reader_stops(name):
    """Like `script | head -1`: the reader closes the pipe after one line."""
    env = src_env()
    env["PYTHONUNBUFFERED"] = "1"  # each line reaches the pipe as printed
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=300)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err, err
    assert "BrokenPipeError" not in err, err
