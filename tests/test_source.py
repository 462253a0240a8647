"""Source-level checks of the package."""

import ast
import os
import subprocess
import sys
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


def test_layers_agree_under_optimize():
    # The layers cross-check each other in a `python -O` process, where any
    # check written as an assert would be gone.
    script = Path(__file__).with_name("optimized_crosscheck.py")
    env = dict(os.environ, PYTHONPATH=str(Path(hmbp.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    tally = {k: int(v) for k, v in (item.split("=") for item in proc.stdout.split())}
    assert tally.get("oracle-infeasible", 0) >= 50
    assert tally.get("classify-infeasible", 0) >= 20
    assert tally.get("solver-feasible", 0) >= 50
