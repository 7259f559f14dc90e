"""Smoke tests for the experiment scripts under scripts/."""

import subprocess
import sys
from fractions import Fraction

import pytest

from cag import BudgetError
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


def refused_flag(name: str, arg: str) -> None:
    """`arg` is refused by argparse: exit 2, its flag named, no output."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), arg],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr, done.stderr
    assert f"argument {arg.split('=')[0]}" in done.stderr
    assert done.stdout == ""


# integer flags take ASCII integer text only: no "_", no spaces, no
# non-ASCII digits, no denominator
@pytest.mark.parametrize("arg", ["--instances=0", "--instances=-1", "--agents=0",
                                 "--nodes=0", "--nodes=x", "--instances=1_0",
                                 "--agents= 2", "--nodes=\u0663", "--nodes=3/1"])
def test_dynamics_convergence_rejects_bad_sizes(arg):
    refused_flag("dynamics_convergence.py", arg)


@pytest.mark.parametrize("arg", ["--max-nodes=1_0", "--max-agents=-5",
                                 "--max-agents=0", "--max-nodes= 4", "--max-nodes=4.0"])
def test_poa_lower_bounds_rejects_bad_sizes(arg):
    refused_flag("poa_lower_bounds.py", arg)


@pytest.mark.parametrize("arg", ["--max-exponent=-1", "--max-exponent=1_0",
                                 "--max-exponent=\u0663", "--max-exponent=8/1"])
def test_reduction_sizes_rejects_bad_sizes(arg):
    refused_flag("reduction_sizes.py", arg)


@pytest.mark.parametrize(
    "error, code",
    [(BudgetError("search-space-too-large: too big"), 1), (ValueError("bad"), 2)],
)
def test_scripts_end_a_library_refusal_in_one_line(monkeypatch, capsys, error, code):
    """A BudgetError (a size limit, such as `reduction_sizes.py
    --max-exponent 1000` past weight 2^18) or a ValueError from the library
    ends a script with one stderr line naming it, not a traceback."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.setattr(sys, "argv", ["reduction_sizes.py"])
    from _common import run

    def main():
        print("row")
        raise error

    with pytest.raises(SystemExit) as exited:
        run(main)
    assert exited.value.code == code
    assert capsys.readouterr() == ("row\n", f"reduction_sizes.py: {error}\n")


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
