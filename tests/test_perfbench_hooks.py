"""Smoke test of the benchmark's hooks into the library.

The benchmark in `perfbench/` calls the public library by name and its
tracer wraps functions and `Evaluator` methods by name.  Running every
workload at its tiny size, and installing the tracer, here makes a change
that deletes or renames one of them fail in the test suite rather than only
in a benchmark run; comparing the jobs' outputs with the pinned digests
does the same for a change that alters an output byte.  `reference.py`
takes minutes, so it is not run: its calls into `cag` are read from its
source and bound to the signatures.
"""

import ast
import importlib
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

from cag import engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return SimpleNamespace(
        **{name: importlib.import_module(name) for name in ("run", "tracing", "workloads")}
    )


def _pool_matches_its_digests(perfbench, name: str, size: str, seed: int) -> None:
    """Every job of the pool passes its oracle check, and its outputs hash
    to the digest `digests.json` pins, as in a benchmark run."""
    workload = perfbench.workloads.WORKLOADS[name]
    inputs = workload.setup(seed, workload.sizes[size])
    assert inputs
    outs = [workload.job(item) for item in inputs]
    for item, out in zip(inputs, outs):
        workload.check(item, out)
    pinned = perfbench.run.pinned_digests(name, size, seed)
    assert [perfbench.run.digest(out) for out in outs] == pinned


@pytest.mark.parametrize("name", ["symmetric", "weighted", "qbf", "dynamics"])
def test_workload_runs_and_checks_at_tiny_size(perfbench, name):
    _pool_matches_its_digests(perfbench, name, "tiny", 1)


@pytest.mark.parametrize("name", ["qbf", "dynamics"])
@pytest.mark.parametrize("seed", [1, 2])
def test_workload_matches_its_digests_at_full_size(perfbench, name, seed):
    """`qbf` has the only job that writes a game document, and `dynamics`
    the only traces long enough to reach most of the epsilon table's
    updates: a layout slip or a wrong entry that decides a step fails
    here."""
    _pool_matches_its_digests(perfbench, name, "full", seed)


def test_tracer_installs_and_uninstalls(perfbench):
    tracing = perfbench.tracing
    before = dict(vars(engine.Evaluator))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vars(engine.Evaluator)["deviation_scaled"] is not before["deviation_scaled"]
    finally:
        tracer.uninstall()
    assert dict(vars(engine.Evaluator)) == before


@pytest.mark.parametrize("name", ["symmetric", "weighted"])
def test_tracer_counts_the_walks_leaf_tests(perfbench, name):
    """`engine.pne_tests` counts the calls of `Evaluator.is_approx_pne`,
    which is `analyze`'s leaf test: moving that test out of the traced
    method would make the metric read 0."""
    workload = perfbench.workloads.WORKLOADS[name]
    inputs = workload.setup(1, workload.sizes["tiny"])
    tracer = perfbench.tracing.Tracer()
    tracer.install()
    try:
        outs, seconds = perfbench.run.run_pass(workload, inputs, tracer)
    finally:
        tracer.uninstall()
    assert None not in outs
    metrics = perfbench.tracing.layer_metrics(
        tracer, perfbench.tracing.Tracer(), len(inputs), seconds, seconds
    )
    key = ("engine.Evaluator.is_approx_pne", "equilibria.analyze")
    leaf_tests = tracer.hot.get(key, [0])[0]
    assert metrics["engine.pne_tests"] >= leaf_tests / len(inputs) > 0
    assert metrics["equilibria.pne_tests_per_profile"] > 0


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
