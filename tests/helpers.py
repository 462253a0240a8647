"""Test-only views and fixtures that the library does not need."""

from hmbp.core import Assignment, CapacityProfile, Instance, WeightProfile
from hmbp.witness import UnsupportedWeightsError, WitnessInstance


def bins_as_dicts(assignment: Assignment) -> list[dict[int, int]]:
    """Every bin as a ``{value: count}`` mapping of its non-zero counts."""
    return [dict(assignment.bin_items(j)) for j in range(assignment.n)]


def normalize(inst: Instance) -> Instance:
    """Shift the smallest weight to zero; feasibility is unchanged.

    Replaces ``w_i`` by ``w_i - w_n`` and ``C_i`` by ``C_i - d*w_n``.
    """
    wn = inst.weights.entries[-1]
    if wn == 0:
        return inst
    return Instance(
        inst.d,
        WeightProfile(tuple(v - wn for v in inst.weights.entries)),
        CapacityProfile(tuple(c - inst.d * wn for c in inst.capacities.entries)),
    )


# Hand-built capacity deltas (relative to d*w) for weight profiles where the
# extremal construction fails more than one corrected condition; each of
# these misses only the full-profile condition, by one, yet stays infeasible.
CURATED_DELTAS: dict[tuple[int, ...], tuple[int, ...]] = {
    (6, 6, 4, 4, 4, 0): (-1, -5, 5, 3, 1, 3),
}

# A profile whose optimality status is unresolved.
EXPLORATION_PROFILE: tuple[int, ...] = (10, 9, 9, 6, 6, 0)


def curated_witness(w: WeightProfile, d: int) -> WitnessInstance:
    """Hand-built witness instance for specially curated weight profiles."""
    delta = CURATED_DELTAS.get(w.entries)
    if delta is None:
        raise UnsupportedWeightsError(f"no curated witness for {w.entries}")
    caps = CapacityProfile(tuple(d * w[j] + delta[j] for j in range(w.n)))
    inst = Instance(d, w, caps)
    return WitnessInstance(
        instance=inst,
        construction="curated",
        relax_index=1,
        companion=None,
        companion_level=w.n,
    )
