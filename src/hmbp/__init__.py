"""Feasibility criteria, exact search and a constructive solver for the
equal-cardinality weighted bin packing problem: ``d`` balls of each of ``n``
given weights into ``n`` bins of given capacities, ``d`` balls per bin."""

from .core import (
    Assignment,
    CapacityProfile,
    ConjugateProfile,
    Instance,
    ProfileError,
    WeightGapProfile,
    WeightProfile,
    b_constant,
    b_row,
    conjugate,
    d_threshold,
    gap_vector,
    is_k_feasible,
    make_instance,
    normalize,
    weight_gap_profile,
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
    curated_witness,
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
