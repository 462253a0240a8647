"""The exact search against an independent reference decider."""

import random
from collections import Counter

from reference import decide as reference_decide
from reference import min_bin1 as reference_min_bin1

from hmbp.core import Assignment, make_instance
from hmbp.oracle import OracleError, decide, min_bin1_weight


def seeded_instance(rng):
    """A desk instance ``(inst, k)``: ``n = 3..7`` weights up to 9, often
    repeated, capacities ``d*w + S`` with the slack ``S`` spread over the
    bins, some capacity shifted between bins, then sorted."""
    n, d = rng.randint(3, 7), rng.randint(1, 7)
    w = sorted((rng.randint(0, 9) for _ in range(n)), reverse=True)
    caps = [d * v for v in w]
    for _ in range(rng.choice([0, 1, 2, 3, n, 2 * n])):
        caps[rng.randrange(n)] += 1
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        t = rng.randint(1, 2 * d)
        caps[a] += t
        caps[b] -= t
    return make_instance(d, w, sorted(caps, reverse=True)), rng.choice([0, 0, 1, 2])


def assert_holds(inst, k, bins):
    """``bins`` is a ``k``-feasible assignment of ``inst``, read through the
    dense view: rows sum to the supply, columns to ``d``."""
    a = Assignment.from_bins(inst.weights, inst.d, bins)
    assert [sum(row) for row in a.counts] == list(a.class_supply)
    assert [sum(col) for col in zip(*a.counts)] == [inst.d] * inst.n
    loads = [sum(v * q for v, q in zip(a.class_values, col)) for col in zip(*a.counts)]
    caps = inst.capacities.entries
    assert all(load <= cap for load, cap in list(zip(loads, caps))[k:])


def test_decide_agrees_with_the_reference():
    rng = random.Random(14)
    tally = Counter()
    for _ in range(300):
        inst, k = seeded_instance(rng)
        bins = reference_decide(inst, k)
        assert decide(inst, k).feasible == (bins is not None), (inst, k)
        if bins is not None:
            assert_holds(inst, k, bins)
        tally["feasible" if bins is not None else "infeasible"] += 1
        tally["k>0"] += k > 0
        tally["S=0"] += inst.capacities.total == inst.d * inst.weights.total
        tally["repeated"] += len(set(inst.weights)) < inst.n
    assert tally["feasible"] >= 100 and tally["infeasible"] >= 60, tally
    assert min(tally["k>0"], tally["S=0"], tally["repeated"]) >= 40, tally


def test_min_bin1_weight_agrees_with_the_reference():
    rng = random.Random(15)
    tally = Counter()
    for _ in range(100):
        inst, _ = seeded_instance(rng)
        want = reference_min_bin1(inst)
        try:
            got = min_bin1_weight(inst)
        except OracleError:
            got = None
        assert got == want, inst
        tally["undefined" if want is None else "defined"] += 1
    assert tally["defined"] >= 40 and tally["undefined"] >= 10, tally
