"""The family F(w, d) of capacity profiles that meet every corrected suffix
condition with the smallest possible total.

F(w, d) is every non-increasing integer capacity profile whose sufficient
suffix slacks (``suffix_report(...).sufficient_slack``) are all non-negative
and whose total is exactly ``d * sum(w) + b(w)``. Below ``d_threshold(w)``
the paper's criteria leave all of them undecided, so the family measures
how the constructive solver does where its guarantee does not reach.
"""

import random
from collections import Counter

from hmbp.core import WeightProfile, is_k_feasible, make_instance
from hmbp.oracle import decide
from hmbp.solver import solve

# The weight profiles of the slice that ``cross_check`` solves.
SLICE_WEIGHTS = ((3, 2, 1, 0), (5, 3, 1, 0), (6, 1, 0), (5, 5, 3, 1, 1, 0))


def family_profiles(w: WeightProfile, d: int):
    """Yield every profile of F(w, d) as a tuple, in a fixed order.

    ``C_n`` is chosen first, then ``C_{n-1}``, ..., ``C_2``; ``C_1`` takes
    the rest of the fixed total. Each ``C_j`` ranges from the smallest value
    that keeps the order and the suffix condition at ``j`` to the largest that
    leaves ``C_1..C_{j-1}`` room to stay at least ``C_j``.
    """
    n = w.n
    b = w.b_row
    demand = [0] * (n + 1)  # demand[j]: d * (w_{j+1} + ... + w_n), 0-based j
    for j in range(n - 1, -1, -1):
        demand[j] = demand[j + 1] + d * w[j]
    total = demand[0] + b[0]

    def extend(j, suffix, tail):
        # ``tail`` holds C_{j+2..n} (1-based), ``suffix`` their sum.
        if j == 0:
            yield (total - suffix,) + tail
            return
        low = demand[j] + b[j] - suffix
        if tail:
            low = max(low, tail[0])
        for c in range(low, (total - suffix) // (j + 1) + 1):
            yield from extend(j - 1, suffix + c, (c,) + tail)

    yield from extend(n - 1, 0, ())


def family_sample(w: WeightProfile, d: int, count: int, rng) -> list[tuple]:
    """``count`` profiles of F(w, d) drawn with ``rng`` (a seeded
    ``random.Random``), in enumeration order; all of them when there are
    fewer. The family is enumerated twice, to count and to pick, rather
    than held in memory: it has 744,688 profiles at w=(5,5,3,1,1,0), d=12."""
    size = sum(1 for _ in family_profiles(w, d))
    picked = set(rng.sample(range(size), min(count, size)))
    return [C for k, C in enumerate(family_profiles(w, d)) if k in picked]


def cross_check(seed: int, per_d: int):
    """Decide and solve ``per_d`` seeded profiles of F(w, d) for every ``w``
    in ``SLICE_WEIGHTS`` and ``d = n..n+3``, with the default solver config.

    Returns ``(tally, faults)``. A fault is a solver-feasible answer that the
    oracle calls infeasible or whose assignment breaks a capacity. The tally
    counts oracle-feasible and -infeasible profiles, solver-feasible answers
    and ``stalled-on-feasible``: answers other than feasible on an
    oracle-feasible profile.
    """
    rng = random.Random(seed)
    tally, faults = Counter(), []
    for w in SLICE_WEIGHTS:
        wp = WeightProfile(w)
        for d in range(wp.n, wp.n + 4):
            for C in family_sample(wp, d, per_d, rng):
                inst = make_instance(d, w, C)
                truth = decide(inst, 0).feasible
                tally["oracle-feasible" if truth else "oracle-infeasible"] += 1
                result = solve(inst)
                if result.feasible:
                    tally["solver-feasible"] += 1
                    if not truth:
                        faults.append(f"d={d} w={w} C={C}: solve feasible, oracle not")
                    if not is_k_feasible(result.assignment, inst.capacities, 0):
                        faults.append(f"d={d} w={w} C={C}: assignment over capacity")
                elif truth:
                    tally["stalled-on-feasible"] += 1
    return tally, faults
