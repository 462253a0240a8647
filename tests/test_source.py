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


def _called_names(node):
    return {
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


def test_search_kernel_does_not_recurse():
    # The kernel's stack depth must not grow with the instance: no function
    # in it calls itself, and no closure calls a sibling closure.
    path = Path(hmbp.__file__).with_name("_search.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert any(f.name == "search_feasible" for f in functions)
    found = [f.name for f in functions if f.name in _called_names(f)]
    for outer in functions:
        closures = [n for n in outer.body if isinstance(n, ast.FunctionDef)]
        names = {f.name for f in closures}
        found += [
            f"{f.name}->{callee}"
            for f in closures
            for callee in sorted(_called_names(f) & names)
        ]
    assert found == []


def test_no_recursion_limit_or_stack_size_tricks():
    # Depth must come from the algorithm, not from a raised interpreter limit:
    # no use of sys.setrecursionlimit or threading.stack_size, by attribute,
    # name or import.
    tricks = {"setrecursionlimit", "stack_size"}
    sources = sorted(Path(hmbp.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{getattr(node, 'lineno', '?')}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if tricks & {getattr(node, field, None) for field in ("attr", "id", "name")}
    ]
    assert found == []


def test_every_parameter_is_read():
    # A parameter no function body reads is surface without a use.
    found = []
    for path in sorted(Path(hmbp.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(fn, "name", "<lambda>")
            found += [f"{path.name}:{name}({p})" for p in params if p not in read]
    assert found == []


PUBLIC_NAMES = [
    "Assignment",
    "BudgetExceeded",
    "CapacityProfile",
    "ConjugateProfile",
    "CriteriaReport",
    "DescentTrace",
    "Feasibility",
    "Instance",
    "Move",
    "OracleError",
    "OracleResult",
    "ProfileError",
    "SolveResult",
    "SolverConfig",
    "StallError",
    "Transfer",
    "UnsupportedWeightsError",
    "Verdict",
    "WeightGapProfile",
    "WeightProfile",
    "WitnessInstance",
    "WitnessVerification",
    "b_constant",
    "b_row",
    "classify",
    "conjugate",
    "curated_witness",
    "d_threshold",
    "decide",
    "extremal_witness",
    "gap_vector",
    "is_k_feasible",
    "make_instance",
    "min_bin1_weight",
    "normalize",
    "relaxed_witness",
    "solve",
    "suffix_report",
    "verify_witness",
    "weight_gap_profile",
]


def test_public_names_are_pinned():
    # The solver's step functions live in hmbp.solver, not in the package
    # namespace; a new export is a decision, made here.
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert hmbp.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(hmbp, name)] == []
