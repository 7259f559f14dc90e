"""The package's sources parse as the oldest Python that `pyproject.toml`
allows.

`ast.parse(..., feature_version=...)` refuses most newer grammar.  It does
not refuse the f-strings of Python 3.12 (nested quotes of the same kind, a
backslash inside a replacement field) when it runs on 3.12 or later, so
those are caught where the interpreter itself is older than 3.12.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = tuple(
    int(part)
    for part in re.search(
        r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
    ).groups()
)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "cag").glob("*.py")), ids=lambda path: path.name
)
def test_source_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
