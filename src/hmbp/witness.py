"""Constructions of infeasible instances that sit one unit below the bound.

The extremal construction produces, for any weight profile with at least two
distinct values and any multiplicity of at least ``n``, a capacity profile
whose total is exactly one short of demand plus the correction constant,
together with a companion assignment that overfills only bin 1 and only by
one unit. No feasible assignment exists, which shows the correction constant
cannot be lowered.

The relaxed construction shifts the deficit to an arbitrary suffix position:
all corrected suffix conditions hold except the chosen one, which misses by
one, and the instance fails feasibility already at that stage. Supported for
suffixes with pairwise distinct entries and for constant suffixes; mixed
repeated suffixes are out of reach of the construction.
"""

from __future__ import annotations

from operator import ge
from typing import NamedTuple

from . import oracle as _oracle
from .core import (
    DEFAULT_NODE_BUDGET,
    Assignment,
    CapacityProfile,
    Instance,
    ProfileError,
    WeightProfile,
    _diagonal_bins,
    b_constant,
    gap_vector,
    is_k_feasible,
)
from .criteria import suffix_report


class UnsupportedWeightsError(ValueError):
    """The requested witness family is not known for these weights."""


class WitnessInstance(NamedTuple):
    """An instance claimed infeasible beyond a stated relaxation level.

    The claim is: not ``(relax_index - 1)``-feasible. ``companion``, when
    present, is an assignment demonstrating ``companion_level``-feasibility,
    i.e. the claim is sharp.
    """

    instance: Instance
    construction: str
    relax_index: int
    companion: Assignment | None
    companion_level: int

    @property
    def weights(self) -> WeightProfile:
        return self.instance.weights


def extremal_capacities(w: WeightProfile, d: int) -> tuple[int, ...]:
    """Capacity profile summing to demand plus the correction constant minus one.

    The first block of bins (one per top-weight position) sits one unit below
    ``d`` top balls; the next bin is sized for the companion's mixed content;
    every later bin gets its diagonal demand plus its weight gap minus one.
    """
    if d < w.n:
        raise ProfileError(f"need d >= n ({w.n}), got {d}")
    values, mult = w.classes
    if len(values) < 2:
        raise ProfileError("extremal construction needs two distinct weights")
    top, second = values[0], values[1]
    # The last run of the conjugate diagram has height h_k, the number of
    # top-weight entries, and length a_k = top - second.
    h_k, a_k = mult[0], top - second
    caps = [d * top - 1] * h_k
    caps.append((h_k - 1) * top + (d - h_k + 1) * second + (a_k - 1))
    # Bin j >= h_k + 2 (1-based) gets d * w_j plus the gap of w_j, minus one.
    caps.extend(d * v + g - 1 for v, g in zip(w.entries[h_k + 1 :], w.gaps[h_k:]))
    return tuple(caps)


def _extremal_bins(w: WeightProfile, d: int, first: int = 0) -> list:
    """The companion's bins as ``(class, count)`` pairs, the classes of
    ``w`` numbered from ``first``."""
    mult = w.classes[1]
    h_k = mult[0]
    top, second = first, first + 1
    bins = [((top, d),)]
    bins += [((top, d - 1), (second, 1))] * (h_k - 1)
    if h_k > 1:
        bins.append(((second, d - h_k + 1), (top, h_k - 1)))
    else:
        bins.append(((second, d),))
    # Bins h_k + 2 on (1-based) hold their diagonal.
    bins += _diagonal_bins(mult, d, first)[h_k + 1 :]
    return bins


def extremal_companion(w: WeightProfile, d: int) -> Assignment:
    """The companion assignment: overfills bin 1 by one unit, nothing else."""
    values, mult = w.classes
    return Assignment(d, values, [d * m for m in mult], _extremal_bins(w, d))


def extremal_witness(w: WeightProfile, d: int) -> WitnessInstance:
    """One-feasible but infeasible instance with total slack exactly minus one."""
    caps = CapacityProfile(extremal_capacities(w, d))
    inst = Instance(d, w, caps)
    companion = extremal_companion(w, d)
    return WitnessInstance(
        instance=inst,
        construction="extremal",
        relax_index=1,
        companion=companion,
        companion_level=1,
    )


def relaxed_witness(w: WeightProfile, d: int, i0: int) -> WitnessInstance:
    """Witness that the corrected suffix condition at ``i0`` cannot be relaxed.

    The suffix from ``i0`` carries the extremal construction (or, for a
    constant suffix, diagonal capacities with the last one short by one);
    positions before ``i0`` get generous capacities so every other corrected
    condition holds. The result is not ``(i0 - 1)``-feasible.
    """
    if not 1 <= i0 <= w.n:
        raise ProfileError(f"relax index {i0} out of range 1..{w.n}")
    if d < w.n:
        raise ProfileError(f"need d >= n ({w.n}), got {d}")
    wt = w.truncate(i0)
    distinct = max(wt.classes[1]) == 1
    constant = wt.is_constant()
    if not distinct and not constant:
        raise UnsupportedWeightsError(
            "relaxed witnesses need a pairwise distinct or constant suffix; "
            f"suffix at {i0} is {wt.entries}"
        )
    # Prefix capacities large enough that every suffix condition before i0
    # holds with room to spare, yet still non-increasing into the suffix.
    pad = b_constant(w) + w.n * w[0]
    prefix = [d * v + pad for v in w.entries[: i0 - 1]]
    values, mult = w.classes
    first = len(values) - len(wt.classes[0])  # w's class of wt's top class
    if constant:
        v = wt[0]
        tail = [d * v] * (wt.n - 1) + [d * v - 1]
        tail_bins = [((first, d),)] * wt.n
        construction, level = "relaxed-constant-tail", w.n
    else:
        tail = extremal_capacities(wt, d)
        tail_bins = _extremal_bins(wt, d, first)
        construction, level = "relaxed-extremal", i0
    # The prefix bins hold their diagonal, the suffix its companion.
    bins = _diagonal_bins(mult, d)[: i0 - 1] + tail_bins
    wit = WitnessInstance(
        instance=Instance(d, w, CapacityProfile(tuple(prefix) + tuple(tail))),
        construction=construction,
        relax_index=i0,
        companion=Assignment(d, values, [d * m for m in mult], bins),
        companion_level=level,
    )
    _assert_relaxed_shape(wit)
    return wit


def _assert_relaxed_shape(wit: WitnessInstance) -> None:
    # Internal sanity: the construction is supposed to satisfy these by
    # design; a failure is a bug, not a user error.
    inst = wit.instance
    i0 = wit.relax_index
    slacks = suffix_report(inst).sufficient_slack
    if slacks[i0 - 1] != -1:
        raise AssertionError(f"suffix slack at {i0} is not -1")
    constant_tail = wit.construction == "relaxed-constant-tail"
    for i in range(1, inst.n + 1):
        if i == i0:
            continue
        slack = slacks[i - 1]
        if constant_tail and (i > i0 or inst.weights[0] == 0):
            # A constant suffix admits no strict one-sided relaxation: every
            # condition nested inside it necessarily misses by the same
            # single unit (likewise everywhere on an all-zero profile).
            if slack != -1:
                raise AssertionError(f"constant tail slack at {i} is not -1")
            continue
        if slack < 0:
            raise AssertionError(f"corrected condition violated at {i} != {i0}")


class WitnessCheck(NamedTuple):
    name: str
    method: str  # "analytic" | "oracle"
    passed: bool


class WitnessVerification(NamedTuple):
    """The checks :func:`verify_witness` ran, in order.

    ``ok`` is true when every check passed. ``oracle_backed`` is true when
    the exact search decided every claim the companion did not settle:
    always the infeasibility claim, and the feasibility claim when no
    companion holding this instance's balls shows it. The search may have
    decided a claim in this call or earlier on the same instance, whose
    record (:mod:`hmbp.oracle`) then answers it within the same budget.
    """

    ok: bool
    checks: tuple[WitnessCheck, ...]
    oracle_backed: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_witness(
    wit: WitnessInstance,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WitnessVerification:
    """Check every claim the witness makes, by oracle where affordable.

    Analytic checks (capacity sum, monotonicity, companion level and gap
    structure) always run. A companion that holds this instance's balls and
    is ``companion_level``-feasible but not ``(relax_index - 1)``-feasible
    proves the feasibility claim, recorded as an analytic
    ``"feasible-above-claim"``. The exact search confirms the infeasibility
    claim, and the feasibility claim too when no companion settled it,
    unless the node budget runs out, in which case the result is flagged as
    analytic-only. An infeasibility the search already decided on this
    instance is read from the instance's record, charged its node count.
    ``node_budget=0`` asks for the analytic checks only.
    """
    inst, i0, level = wit.instance, wit.relax_index, wit.companion_level
    if not 1 <= i0 <= inst.n:
        raise ProfileError(f"relax_index={i0} out of range 1..{inst.n}")
    if not 0 <= level <= inst.n:
        raise ProfileError(f"companion_level={level} out of range 0..{inst.n}")
    checks: list[WitnessCheck] = []

    # The corrected suffix condition at i0, the one entry of the suffix
    # report this check reads.
    caps, w = inst.capacities.entries, inst.weights
    slack = sum(caps[i0 - 1 :]) - inst.d * sum(w.entries[i0 - 1 :]) - w.b_row[i0 - 1]
    checks.append(WitnessCheck("suffix-slack-minus-one", "analytic", slack == -1))
    mono_ok = all(map(ge, caps, caps[1:]))
    checks.append(WitnessCheck("capacities-non-increasing", "analytic", mono_ok))

    settled = False
    comp = wit.companion
    if comp is not None:
        # The same d, classes and supplies fix the bin count too: every bin
        # holds d balls, so there are as many bins as weight entries.
        values, mult = w.classes
        holds = (
            comp.d == inst.d
            and comp.class_values == values
            and comp.class_supply == tuple(inst.d * m for m in mult)
        )
        comp_ok = (
            holds
            and is_k_feasible(comp, inst.capacities, level)
            and not is_k_feasible(comp, inst.capacities, i0 - 1)
        )
        checks.append(WitnessCheck("companion-level", "analytic", comp_ok))
        settled = comp_ok and level < inst.n
        if settled:
            checks.append(WitnessCheck("feasible-above-claim", "analytic", True))
        if wit.construction == "extremal":
            expected = (-1,) + tuple(g - 1 for g in w.gaps)
            gaps_ok = holds and gap_vector(comp, inst.capacities) == expected
            checks.append(WitnessCheck("companion-gaps", "analytic", gaps_ok))

    oracle_backed = False
    try:
        infeas = not _oracle.decide(inst, i0 - 1, node_budget).feasible
        checks.append(WitnessCheck("infeasible-at-claim", "oracle", infeas))
        if level < inst.n and not settled:
            feas = _oracle.decide(inst, level, node_budget).feasible
            checks.append(WitnessCheck("feasible-above-claim", "oracle", feas))
        oracle_backed = True
    except _oracle.BudgetExceeded:
        pass

    ok = all(c.passed for c in checks)
    return WitnessVerification(ok=ok, checks=tuple(checks), oracle_backed=oracle_backed)
