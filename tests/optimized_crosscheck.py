"""Layer cross-check meant to run under ``python -O``.

Solves about 200 seeded desk-scale instances (n <= 6) three ways and exits
non-zero when the layers disagree:

* classify says infeasible, but the oracle finds the instance feasible;
* classify guarantees feasibility, but the oracle says infeasible;
* solve says feasible, but the oracle says infeasible;
* a solver assignment fails ``is_k_feasible``, here or on a seeded slice of
  the family F(w, d) (``family.cross_check``), solved with the defaults;
* the bin-1 capacity W^min from ``min_bin1_weight`` is not 0-feasible, or
  W^min - 1 is (decided with the capacities re-sorted, since bins differ
  only by capacity);
* on seeded extremal and relaxed witnesses (n <= 7), ``verify_witness`` lets
  the companion settle the feasibility claim where the oracle finds the
  instance not ``companion_level``-feasible, or the oracle finds it
  ``(relax_index - 1)``-feasible; each witness is checked again with one
  capacity lowered by one unit, where the companion may no longer settle it.

``python -O`` strips ``assert`` statements, so this checks that the library
still verifies its answers without them. Run it as
``PYTHONPATH=src python -O tests/optimized_crosscheck.py``.
"""

import random
import sys
from collections import Counter

from family import cross_check
from hmbp.core import ProfileError, WeightProfile, is_k_feasible, make_instance
from hmbp.criteria import Feasibility, classify, tight_profile
from hmbp.oracle import BudgetExceeded, OracleError, decide, min_bin1_weight
from hmbp.solver import SolverConfig, solve
from hmbp.witness import (
    UnsupportedWeightsError,
    extremal_witness,
    relaxed_witness,
    verify_witness,
)

INSTANCES = 200
NODE_BUDGET = 200_000
FAMILY_SEED = 11  # not the seed of the tier-1 slice in test_solver.py
WITNESSES = 250


def instances(seed=20261018):
    rng = random.Random(seed)
    for _ in range(INSTANCES):
        n = rng.randint(2, 6)
        w = WeightProfile(
            tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        )
        d = rng.randint(1, 8)
        caps = [c + rng.randint(-2, 3) for c in tight_profile(w, d)]
        cfg = SolverConfig(r=rng.randint(1, 2), N=rng.randint(1, 4))
        yield make_instance(d, w, sorted(caps, reverse=True)), cfg


def feasible_with_bin1(inst, cap1) -> bool:
    caps = sorted((cap1,) + inst.capacities.entries[1:], reverse=True)
    inst = make_instance(inst.d, inst.weights.entries, caps)
    return decide(inst, 0, node_budget=NODE_BUDGET).feasible


def check_wmin(inst, label, faults, tally) -> None:
    try:
        wmin = min_bin1_weight(inst, node_budget=NODE_BUDGET)
    except OracleError:
        return
    if not feasible_with_bin1(inst, wmin):
        faults.append(f"{label}: bin-1 capacity W^min={wmin} infeasible")
    if feasible_with_bin1(inst, wmin - 1):
        faults.append(f"{label}: bin-1 capacity W^min-1={wmin - 1} feasible")
    tally["wmin-checked"] += 1


def witnesses(seed=20261019):
    rng = random.Random(seed)
    for _ in range(WITNESSES):
        n = rng.randint(2, 7)
        w = WeightProfile(
            tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        )
        d = rng.randint(n, n + 3)
        try:
            if rng.random() < 0.5:
                wit = extremal_witness(w, d)
            else:
                wit = relaxed_witness(w, d, rng.randint(1, n))
        except (ProfileError, UnsupportedWeightsError):
            continue
        yield wit
        caps = list(wit.instance.capacities.entries)
        caps[rng.randrange(n)] -= 1
        try:
            yield wit._replace(instance=make_instance(d, w.entries, caps))
        except ProfileError:
            continue


def check_witness(wit, faults, tally) -> None:
    """The companion rule of ``verify_witness`` against the oracle."""
    inst, i0, level = wit.instance, wit.relax_index, wit.companion_level
    label = f"{wit.construction} d={inst.d} w={inst.weights.entries} i0={i0}"
    try:
        ver = verify_witness(wit, node_budget=NODE_BUDGET)
        if decide(inst, i0 - 1, node_budget=NODE_BUDGET).feasible:
            faults.append(f"{label}: oracle finds it {i0 - 1}-feasible")
        if ("feasible-above-claim", "analytic", True) in ver.checks:
            tally["witness-companion-checked"] += 1
            if not decide(inst, level, node_budget=NODE_BUDGET).feasible:
                faults.append(f"{label}: companion settles {level}, oracle refutes")
    except BudgetExceeded:
        return


def main() -> int:
    if sys.flags.optimize < 1:
        print("run me under python -O", file=sys.stderr)
        return 2
    faults = []
    tally = Counter()
    for inst, cfg in instances():
        label = f"d={inst.d} w={inst.weights.entries} C={inst.capacities.entries}"
        try:
            truth = decide(inst, 0, node_budget=NODE_BUDGET).feasible
        except BudgetExceeded:
            continue
        tally["oracle-feasible" if truth else "oracle-infeasible"] += 1
        verdict = classify(inst).kind
        tally["classify-infeasible"] += verdict is Feasibility.INFEASIBLE
        if verdict is Feasibility.INFEASIBLE and truth:
            faults.append(f"{label}: classify infeasible, oracle feasible")
        if verdict is Feasibility.GUARANTEED_FEASIBLE and not truth:
            faults.append(f"{label}: classify guaranteed feasible, oracle infeasible")
        result = solve(inst, cfg)
        if result.feasible:
            tally["solver-feasible"] += 1
            if not truth:
                faults.append(f"{label}: solve feasible, oracle infeasible")
            if not is_k_feasible(result.assignment, inst.capacities, 0):
                faults.append(f"{label}: solver assignment over capacity")
        check_wmin(inst, label, faults, tally)
    for wit in witnesses():
        check_witness(wit, faults, tally)
    family_tally, family_faults = cross_check(seed=FAMILY_SEED, per_d=30)
    faults += family_faults
    tally.update({f"family-{k}": v for k, v in family_tally.items()})
    for line in faults:
        print(line, file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
