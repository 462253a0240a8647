"""Feasibility criteria, exact search and a constructive solver for the
equal-cardinality weighted bin packing problem: ``d`` balls of each of ``n``
given weights into ``n`` bins of given capacities, ``d`` balls per bin."""

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
from .oracle import BudgetExceeded, OracleError, OracleResult, decide, min_bin1_weight
from .solver import (
    DescentTrace,
    Move,
    SolveResult,
    SolverConfig,
    StallError,
    Transfer,
    solve,
)
from .witness import (
    UnsupportedWeightsError,
    WitnessInstance,
    WitnessVerification,
    extremal_witness,
    relaxed_witness,
    verify_witness,
)

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
