"""Smoke test of the benchmark's hooks into the library.

The benchmark in `perfbench/` calls the public library by name and its
tracer wraps functions and `Evaluator` methods by name.  Running every
workload at its tiny size, and installing the tracer, here makes a change
that deletes or renames one of them fail in the test suite rather than only
in a benchmark run.  `reference.py` takes minutes, so it is not run: its
calls into `cag` are read from its source and bound to the signatures.
"""

import ast
import importlib
import inspect
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


def test_reference_script_calls_bind_to_the_library():
    tree = ast.parse((PERFBENCH / "reference.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cag"
        for alias in node.names
    }
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    bound = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            continue
        name = f"{node.value.id}.{node.attr}"
        module = importlib.import_module(f"cag.{node.value.id}")
        assert hasattr(module, node.attr), f"reference.py reads {name}, which is gone"
        call = calls.get(id(node))
        if call is None:
            continue
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(getattr(module, node.attr)).bind(*call.args, **keywords)
        except TypeError as exc:
            raise AssertionError(f"reference.py's call of {name}: {exc}") from None
        bound.add(name)
    assert "equilibria.analyze" in bound
