"""Every public `Evaluator` method has a caller.

The sources are read with `ast`, not imported: a method counts as used when
`src/cag` refers to it as an attribute outside its own definition, or when
the benchmark's tracer wraps it by name (the `HOT` list of
`perfbench/tracing.py`).  An engine method whose last caller goes then
fails here instead of lingering.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cag"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _attributes_outside_own_def(tree: ast.AST) -> set[str]:
    """Attribute names referred to anywhere but inside a function of the
    same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _traced_methods() -> set[str]:
    tree = _parse(ROOT / "perfbench" / "tracing.py")
    (hot,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "HOT" for t in node.targets)
    ]
    return set(ast.literal_eval(hot))


def test_every_public_evaluator_method_has_a_caller():
    (evaluator,) = [
        node
        for node in _parse(PACKAGE / "engine.py").body
        if isinstance(node, ast.ClassDef) and node.name == "Evaluator"
    ]
    public = {
        node.name
        for node in evaluator.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public
    used = set().union(
        *(_attributes_outside_own_def(_parse(path)) for path in PACKAGE.glob("*.py"))
    )
    assert sorted(public - used - _traced_methods()) == []
