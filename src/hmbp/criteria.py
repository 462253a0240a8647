"""Suffix-sum feasibility criteria and instance classification.

Two nested families of per-index conditions are evaluated, both by the one
:func:`suffix_report`: the necessary ones compare each suffix of capacities
against the matching suffix demand ``d * (w_i + ... + w_n)``; the sufficient
ones additionally require the correction constant of the truncated weight
profile as extra headroom, and only certify feasibility once the
multiplicity clears its threshold. The correction constants of all the
suffixes are the profile's table :attr:`hmbp.core.WeightProfile.b_row`, one
O(n) pass kept with the profile, so a report costs O(n) whatever the size of
the weights.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from operator import sub
from typing import NamedTuple

from .core import CapacityProfile, Instance, WeightProfile, d_threshold


class Feasibility(enum.Enum):
    INFEASIBLE = "infeasible"
    GUARANTEED_FEASIBLE = "guaranteed_feasible"
    INDETERMINATE = "indeterminate"


class CriteriaReport(NamedTuple):
    """Per-index slack data for one instance.

    All tuples are indexed by suffix start position minus one, i.e. entry 0
    describes the full profiles. ``sufficient_slack[i] + b_values[i] ==
    necessary_slack[i]`` holds at every index.
    """

    suffix_capacity: tuple[int, ...]
    suffix_demand: tuple[int, ...]
    b_values: tuple[int, ...]
    necessary_slack: tuple[int, ...]
    sufficient_slack: tuple[int, ...]
    threshold: int
    meets_threshold: bool

    @property
    def n(self) -> int:
        return len(self.suffix_capacity)

    def first_necessary_violation(self) -> int | None:
        """1-based index of the first violated necessary condition, if any."""
        return _first_negative(self.necessary_slack)

    def first_sufficient_violation(self) -> int | None:
        """1-based index of the first violated sufficient condition, if any."""
        return _first_negative(self.sufficient_slack)


def _first_negative(slacks: tuple[int, ...]) -> int | None:
    return next((i for i, s in enumerate(slacks, start=1) if s < 0), None)


class Verdict(NamedTuple):
    kind: Feasibility
    index: int | None = None

    @property
    def is_infeasible(self) -> bool:
        return self.kind is Feasibility.INFEASIBLE

    @property
    def is_guaranteed_feasible(self) -> bool:
        return self.kind is Feasibility.GUARANTEED_FEASIBLE


def suffix_report(inst: Instance) -> CriteriaReport:
    """Evaluate every suffix condition of ``inst``, necessary and sufficient.

    A negative necessary slack proves infeasibility; all-non-negative
    sufficient slack plus a multiplicity at or above the threshold
    guarantees feasibility.
    """
    w = inst.weights
    suffix_cap = tuple(accumulate(reversed(inst.capacities.entries)))[::-1]
    suffix_dem = tuple(inst.d * s for s in accumulate(reversed(w.entries)))[::-1]
    b_vals = w.b_row
    necessary = tuple(map(sub, suffix_cap, suffix_dem))
    sufficient = tuple(map(sub, necessary, b_vals))
    thr = d_threshold(w)
    return CriteriaReport(
        suffix_capacity=suffix_cap,
        suffix_demand=suffix_dem,
        b_values=b_vals,
        necessary_slack=necessary,
        sufficient_slack=sufficient,
        threshold=thr,
        meets_threshold=inst.d >= thr,
    )


def tight_profile(w: WeightProfile, d: int) -> CapacityProfile:
    """Capacities meeting every corrected suffix condition with equality.

    Built as ``C_i = d*w_i + b_i - b_{i+1}``; when that sequence dips, earlier
    entries are raised to the running maximum from the right, which preserves
    every suffix sum and restores monotonicity minimally.
    """
    b = w.b_row + (0,)
    caps = [d * w[i] + b[i] - b[i + 1] for i in range(w.n)]
    for j in range(w.n - 2, -1, -1):
        if caps[j] < caps[j + 1]:
            caps[j] = caps[j + 1]
    return CapacityProfile(tuple(caps))


def classify(inst: Instance) -> Verdict:
    """Classify an instance without searching.

    Constant weight profiles are decided outright for any multiplicity: every
    bin must receive exactly ``d`` equal balls, so feasibility is equivalent
    to the smallest capacity covering ``d * w``.
    """
    report = suffix_report(inst)
    w = inst.weights
    if w.is_constant():
        need = inst.d * w.entries[0]
        if inst.capacities[w.n - 1] >= need:
            return Verdict(Feasibility.GUARANTEED_FEASIBLE)
        return Verdict(Feasibility.INFEASIBLE, index=w.n)
    bad = report.first_necessary_violation()
    if bad is not None:
        return Verdict(Feasibility.INFEASIBLE, index=bad)
    if report.meets_threshold and report.first_sufficient_violation() is None:
        return Verdict(Feasibility.GUARANTEED_FEASIBLE)
    return Verdict(Feasibility.INDETERMINATE, index=report.first_sufficient_violation())
