"""Feasibility criteria, exact search and a constructive solver for the
equal-cardinality weighted bin packing problem: ``d`` balls of each of ``n``
given weights into ``n`` bins of given capacities, ``d`` balls per bin.

``import hmbp`` runs ``core``, ``criteria`` and ``witness``. The two engines,
``oracle`` (the exact search, with its kernel ``_search``) and ``solver``
(the descent), are registered in ``sys.modules`` as lazy modules
(:class:`importlib.util.LazyLoader`): each is compiled and run on the first
read of one of its attributes, so a process that never searches or descends
never pays for them. The package's engine names (``decide``, ``solve``, ...)
resolve through the module ``__getattr__``. Before Python 3.12 the first
load of a lazy module is not thread-safe: a program whose threads may first
touch an engine at the same time should read one of its names (for example
``hmbp.solve``) before it starts them.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .core import (
    Assignment,
    CapacityProfile,
    ConjugateProfile,
    Instance,
    ProfileError,
    WeightProfile,
    b_constant,
    conjugate,
    d_threshold,
    gap_vector,
    is_k_feasible,
    make_instance,
)
from .criteria import (
    CriteriaReport,
    Feasibility,
    Verdict,
    classify,
    suffix_report,
)


def _lazy(name):
    """Register the submodule ``name`` unexecuted; it runs on first use."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Registered before `witness` runs, so that its `from . import oracle`
# binds the lazy module.
oracle = _lazy("oracle")
solver = _lazy("solver")

from .witness import (
    UnsupportedWeightsError,
    WitnessInstance,
    WitnessVerification,
    extremal_witness,
    relaxed_witness,
    verify_witness,
)

_ENGINE_OF = dict.fromkeys(
    ("BudgetExceeded", "OracleError", "OracleResult", "decide", "min_bin1_weight"),
    oracle,
) | dict.fromkeys(
    (
        "DescentTrace",
        "Move",
        "SolveResult",
        "SolverConfig",
        "StallError",
        "Transfer",
        "solve",
    ),
    solver,
)


def __getattr__(name):
    try:
        module = _ENGINE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted(globals().keys() | _ENGINE_OF.keys())


__version__ = "0.1.0"

__all__ = [
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
