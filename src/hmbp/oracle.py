"""Exact decision of k-feasibility by exhaustive search.

This is the ground truth for desk-scale instances: an exhaustive search over
per-bin class count vectors with suffix-dominance pruning and memoization of
dead states (the kernel in ``_search``). Above the node budget it refuses
with :class:`BudgetExceeded` rather than guessing.

The minimum bin-1 load W^min is found by bisection over the same search: a
bin-1 load of at most ``W`` is achievable exactly when the instance with
bin-1 capacity ``W`` is 0-feasible. The bracket is narrowed from both ends:
each feasible probe lowers the upper end to the bin-1 load it actually found,
and the lower end starts at the load that bins 2..n cannot absorb, so most
answers take one or two probes.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import _search
from .core import (
    DEFAULT_NODE_BUDGET,
    Assignment,
    Instance,
    ProfileError,
    is_k_feasible,
)


class BudgetExceeded(RuntimeError):
    """The search hit its node budget before reaching a decision."""


class OracleError(ValueError):
    """Misuse of the oracle (e.g. minimum load of a non-1-feasible instance)."""


def kernel_name() -> str:
    """Name of the search kernel; there is one, in pure Python."""
    return "pure"


class OracleResult(NamedTuple):
    feasible: bool
    witness: Assignment | None
    nodes_explored: int
    elapsed: float


def _class_data(inst: Instance):
    values, mult = inst.weights.classes
    return values, [inst.d * m for m in mult]


def _check_budget(node_budget: int) -> None:
    # A negative budget is a caller error; reported as BudgetExceeded it
    # would read as an honest refusal.
    if node_budget < 0:
        raise OracleError(f"node_budget={node_budget} is negative")


def _undecided(node_budget: int, nodes: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"undecided: node budget {node_budget} exhausted after {nodes} nodes"
    )


def decide(
    inst: Instance,
    k: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Exact k-feasibility decision with a feasible witness when one exists.

    Intended for desk scale; the search refuses with :class:`BudgetExceeded`
    once ``node_budget`` states have been expanded. A negative budget raises
    :class:`OracleError`.
    """
    if not 0 <= k <= inst.n:
        raise ProfileError(f"k={k} out of range 0..{inst.n}")
    _check_budget(node_budget)
    values, supply = _class_data(inst)
    start = time.perf_counter()
    status, bins, nodes = _search.search_feasible(
        values, supply, inst.capacities.entries, inst.d, k, node_budget
    )
    elapsed = time.perf_counter() - start
    if status == _search.STATUS_BUDGET:
        raise _undecided(node_budget, nodes)
    if status == _search.STATUS_FEASIBLE:
        witness = Assignment(inst.d, values, supply, bins)
        if not is_k_feasible(witness, inst.capacities, k):
            raise AssertionError(f"oracle witness is not {k}-feasible")
        return OracleResult(True, witness, nodes, elapsed)
    return OracleResult(False, None, nodes, elapsed)


def min_bin1_weight(
    inst: Instance,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Minimum achievable load of bin 1 over all 1-feasible assignments.

    Bisection on the bin-1 capacity ``W``: each probe decides 0-feasibility
    with capacities ``(W, C_2, ..., C_n)``. The first probe is at
    ``W = d*w_1``, where bin 1 is unconstrained, so an infeasible first probe
    means the instance is not 1-feasible, and :class:`OracleError` is raised.
    A feasible probe sets the upper end to the load its bin 1 carries, which
    is achievable and at most ``W``; an infeasible one sets the lower end to
    ``W + 1``. The lower end starts at ``max(d*w_n, d*sum(w) - sum(C_2..C_n))``:
    bin 1 holds ``d`` balls of weight at least ``w_n``, and bins 2..n hold no
    more than their capacities. Both ends bound W^min at every step, so the
    answer is exact. ``node_budget`` caps the nodes summed over all probes;
    when it runs out, :class:`BudgetExceeded` is raised; a negative one
    raises :class:`OracleError`.
    """
    _check_budget(node_budget)
    values, supply = _class_data(inst)
    rest = inst.capacities.entries[1:]
    used = 0

    def bin1_load(cap1: int) -> int | None:
        """The bin-1 load of a 0-feasible assignment under ``cap1``, or None."""
        nonlocal used
        status, bins, nodes = _search.search_feasible(
            values, supply, (cap1,) + rest, inst.d, 0, node_budget - used
        )
        used += nodes
        if status == _search.STATUS_BUDGET:
            raise _undecided(node_budget, used)
        if status == _search.STATUS_FEASIBLE:
            return sum(values[c] * x for c, x in bins[0])
        return None

    d, w = inst.d, inst.weights.entries
    hi = bin1_load(d * w[0])
    if hi is None:
        raise OracleError("instance is not 1-feasible; minimum bin-1 load undefined")
    lo = max(d * w[-1], d * sum(w) - sum(rest))
    while lo < hi:
        mid = (lo + hi) // 2
        load = bin1_load(mid)
        if load is None:
            lo = mid + 1
        else:
            hi = load
    return hi
