"""Source-level checks of the package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert tally.get("wmin-checked", 0) >= 50
    assert tally.get("family-solver-feasible", 0) >= 400
    assert tally.get("witness-companion-checked", 0) >= 200


def _called_names(node):
    return {
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


def test_search_kernel_does_not_recurse():
    # No module's stack depth may grow with the instance, the search kernel's
    # and the solver's matching included: no function calls itself, and no
    # closure calls a sibling closure.
    found, names_seen = [], set()
    for path in sorted(Path(hmbp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        names_seen |= {f.name for f in functions}
        found += [
            f"{path.name}:{f.name}" for f in functions if f.name in _called_names(f)
        ]
        for outer in functions:
            closures = [n for n in outer.body if isinstance(n, ast.FunctionDef)]
            names = {f.name for f in closures}
            found += [
                f"{path.name}:{f.name}->{callee}"
                for f in closures
                for callee in sorted(_called_names(f) & names)
            ]
    assert {"search_feasible", "find_permutation"} <= names_seen
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


def test_every_import_is_used():
    # A name a module imports and never reads is a stale dependency; the
    # package's __init__ imports to re-export, and __future__ sets flags.
    found = []
    for path in sorted(Path(hmbp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{line}:{name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert found == []


def _package_imports(tree):
    """The ``hmbp`` modules a module's relative imports name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_solver_stands_alone():
    # The descent answers for itself: the solver imports no layer but core,
    # so a feasible solve is always its own construction. Only the CLI and
    # the witness checker put the exact search together with another
    # deciding layer.
    deciding = {"criteria", "solver", "witness"}
    imports = {
        path.name: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(hmbp.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert imports["solver.py"] == {"core"}
    combined = {
        name for name, used in imports.items() if "oracle" in used and used & deciding
    }
    assert combined == {"cli.py", "witness.py"}


def test_no_dataclasses_import():
    # Importing dataclasses (and the inspect, ast and dis modules it pulls
    # in) costs every CLI process more than the commands compute; records
    # are NamedTuples or plain classes.
    found = []
    for path in sorted(Path(hmbp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}"
                for module in modules
                if module.split(".")[0] == "dataclasses"
            ]
    assert found == []


def _fresh(body):
    """The stdout of ``body`` run in a fresh ``python -S`` process. `-S`
    skips `site`, so nothing preloaded by a .pth file can hide an import;
    `src` goes on the path by hand."""
    src = str(Path(hmbp.__file__).parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r})\n{body}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Prints, as its last line, the `hmbp` modules that have run. A lazy module
# is in sys.modules from registration on, but its type stays a subclass of
# ModuleType until its first attribute read runs it.
_PRINT_EXECUTED = """
import types
print(*sorted(
    name for name, module in list(sys.modules.items())
    if name.split(".")[0] == "hmbp" and type(module) is types.ModuleType
))
"""
EAGER = {"hmbp", "hmbp.core", "hmbp.criteria", "hmbp.witness"}
ORACLE = {"hmbp.oracle", "hmbp._search"}


def _executed(body):
    return set(_fresh(body + _PRINT_EXECUTED).splitlines()[-1].split())


def test_cli_import_loads_every_layer_and_no_dataclasses():
    # Every layer is in sys.modules once `hmbp` is in, as the bench's tracer
    # needs, but the two engines are registered there unexecuted.
    out = _fresh("import hmbp.cli; print(*sys.modules)" + _PRINT_EXECUTED)
    loaded, executed = (set(line.split()) for line in out.splitlines()[-2:])
    assert {"dataclasses", "inspect"} & loaded == set()
    layers = ("core", "criteria", "oracle", "solver", "witness")
    assert {f"hmbp.{name}" for name in layers} <= loaded
    assert "hmbp._search" not in loaded
    assert executed == EAGER | {"hmbp.cli"}


@pytest.mark.parametrize(
    "argv, engines",
    [
        (["check", "{file}"], set()),
        (["info", "--w", "3", "1"], set()),
        (["witness", "--w", "3", "1", "--d", "2"], set()),
        (["solve", "{file}"], {"hmbp.solver"}),
        (["oracle", "{file}"], ORACLE),
        (["oracle", "--wmin", "{file}"], ORACLE),
        (
            ["bench", "--w", "3", "1", "--d-min", "2", "--d-max", "2",
             "--mode", "tight"],
            ORACLE | {"hmbp.solver"},
        ),
    ],
    ids=["check", "info", "witness", "solve", "oracle", "oracle-wmin", "bench"],
)
def test_each_command_runs_only_the_engines_it_uses(argv, engines, tmp_path):
    # Compiling an engine costs a CLI process more than most commands
    # compute, so each command runs only the engines it calls.
    path = tmp_path / "inst.txt"
    path.write_text("d: 2\nw: 3 1\nC: 6 3\n", encoding="utf-8")
    argv = [a.format(file=path) for a in argv]
    executed = _executed(f"from hmbp.cli import main; main({argv!r})")
    assert executed == EAGER | {"hmbp.cli"} | engines


def test_an_engine_runs_on_its_first_attribute_read():
    # The bench's tracer reads each traced function off the module in
    # sys.modules; that read runs the engine, and only that one.
    executed = _executed(
        'import hmbp; getattr(sys.modules["hmbp.solver"], "solve")'
    )
    assert executed == EAGER | {"hmbp.solver"}


def test_package_names_resolve_and_are_listed():
    # `dir` lists the engines' names without running them; reading one
    # resolves it through the module `__getattr__`.
    out = _fresh(
        "import hmbp; print(*dir(hmbp))" + _PRINT_EXECUTED
        + "print(all(hasattr(hmbp, name) for name in hmbp.__all__))"
        + _PRINT_EXECUTED
    )
    listed, before, resolved, after = out.splitlines()
    assert set(hmbp.__all__) <= set(listed.split())
    assert set(before.split()) == EAGER
    assert resolved == "True"
    assert set(after.split()) == EAGER | ORACLE | {"hmbp.solver"}
    assert hmbp.decide is hmbp.oracle.decide and hmbp.solve is hmbp.solver.solve
    assert not hasattr(hmbp, "no_such_name")


def _resolves(dotted):
    """True when ``dotted`` names a module or a chain of attributes on one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_bench_names_resolve():
    # perfbench reaches the package through `hmbp.` attribute chains and
    # wraps the (module, name) pairs of tracing.TRACED by name, so deleting
    # or renaming one of them breaks the bench. Its files are parsed here,
    # never imported.
    names = set()
    for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                traced = ast.literal_eval(node.value)
                names |= {".".join(pair) for pair in traced.values()}
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == "hmbp":
                names.add(".".join(["hmbp"] + parts[::-1]))
    assert len(names) >= 30
    assert [name for name in sorted(names) if not _resolves(name)] == []


def test_solver_moves_take_one_path():
    # One helper applies, measures and logs every solver move: Move is built
    # only there, already in full-instance bins, and no step takes an
    # optional log.
    path = Path(hmbp.__file__).with_name("solver.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    builders, optional_logs = set(), []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        if "Move" in _called_names(fn):
            builders.add(fn.name)
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        defaults = list(zip(positional[first:], a.defaults))
        defaults += list(zip(a.kwonlyargs, a.kw_defaults))
        optional_logs += [
            f"{fn.name}({arg.arg})"
            for arg, default in defaults
            if arg.arg in ("log", "sink")
            and isinstance(default, ast.Constant)
            and default.value is None
        ]
    assert builders == {"_record"}
    assert optional_logs == []


def test_only_core_and_the_cli_printer_read_the_dense_view():
    # An assignment stores each bin's counts, and `.counts` builds the dense
    # matrix afresh on each read: a step that held it across a move would
    # act on stale counts. So only core.py and the CLI's printer read it.
    found, printer_reads = [], 0
    for path in sorted(Path(hmbp.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if path.name == "cli.py"
            and getattr(fn, "name", None) == "_print_assignment"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "counts":
                if id(node) in allowed:
                    printer_reads += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert printer_reads == 1


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
    "WeightProfile",
    "WitnessInstance",
    "WitnessVerification",
    "b_constant",
    "classify",
    "conjugate",
    "d_threshold",
    "decide",
    "extremal_witness",
    "gap_vector",
    "is_k_feasible",
    "make_instance",
    "min_bin1_weight",
    "relaxed_witness",
    "solve",
    "suffix_report",
    "verify_witness",
]


def test_public_names_are_pinned():
    # The solver's step functions live in hmbp.solver, not in the package
    # namespace; a new export is a decision, made here.
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert hmbp.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(hmbp, name)] == []
