"""Source-level checks of the package."""

import ast
from pathlib import Path

import hmbp


def test_no_assert_statements():
    # `python -O` strips assert statements, so library checks must raise
    # explicitly to survive it.
    sources = sorted(Path(hmbp.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"core.py", "criteria.py", "solver.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
