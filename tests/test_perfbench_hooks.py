"""Smoke test of the benchmark's hooks into the library.

The benchmark in `perfbench/` calls the public library by name and its
tracer wraps functions and `Evaluator` methods by name.  Running every
workload at its tiny size, and installing the tracer, here makes a change
that deletes or renames one of them fail in the test suite rather than only
in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from cag import engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", ["symmetric", "weighted", "qbf", "dynamics"])
def test_workload_runs_and_checks_at_tiny_size(perfbench, name):
    workloads, _ = perfbench
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(1, workload.sizes["tiny"])
    assert inputs
    for item in inputs:
        workload.check(item, workload.job(item))


def test_tracer_installs_and_uninstalls(perfbench):
    _, tracing = perfbench
    before = dict(vars(engine.Evaluator))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vars(engine.Evaluator)["deviation_scaled"] is not before["deviation_scaled"]
    finally:
        tracer.uninstall()
    assert dict(vars(engine.Evaluator)) == before
