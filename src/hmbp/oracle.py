"""Exact decision of k-feasibility by exhaustive search.

This is the ground truth for desk-scale instances: an exhaustive search over
per-bin class count vectors with suffix-dominance pruning and memoization of
dead states (the kernel in ``_search``). Above the node budget it refuses
with :class:`BudgetExceeded` rather than guessing.

The minimum bin-1 load W^min is found by bisection over the same search: a
bin-1 load of at most ``W`` is achievable exactly when the instance with
bin-1 capacity ``W`` is 0-feasible. The first question is the instance's
1-feasibility, the ``k = 1`` search, whose bin-1 load bounds W^min from
above. The bracket is narrowed from both ends: each feasible probe lowers
the upper end to the bin-1 load it actually found, and the lower end starts
at the load that bins 2..n cannot absorb, so most answers take one or two
probes.

Each instance keeps a record of the searches decided on its own
capacities, by ``k``: the status, the node count and the bin-1 load, never
the bins. So the exact search is asked each of these questions once per
instance. ``decide`` answers a recorded infeasible ``k`` from the record,
and W^min reads its first question there when ``decide(inst, 1)`` has
answered it. A recorded answer is charged its node count against the
budget, as the search that made it was. A feasible ``decide`` always
searches, to build and check its witness; budget refusals and W^min's
probes at a lowered bin-1 capacity are not recorded.
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


def _decided(inst: Instance) -> dict:
    """The record of the searches decided on ``inst``'s own capacities, by
    ``k``: ``(status, nodes, bin-1 load)``. It is kept in the instance's
    ``__dict__`` beside its fields, as its profiles keep their cached tables,
    so it lives as long as the instance, and ``==``, ``hash`` and ``repr``,
    which read the fields only, never see it."""
    return inst.__dict__.setdefault("_decided", {})


def _charged(entry, node_budget: int):
    """A recorded ``(status, nodes, bin-1 load)``, charged to ``node_budget``
    as the search that made it was: a budget below its node count refuses
    at ``node_budget + 1`` nodes, where that search would have stopped."""
    if entry[1] > node_budget:
        raise _undecided(node_budget, node_budget + 1)
    return entry


def _bin1_load(values, bins) -> int | None:
    """The load of bin 1 in a kernel answer, or None when there is none."""
    return None if bins is None else sum(values[c] * x for c, x in bins[0])


def decide(
    inst: Instance,
    k: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Exact k-feasibility decision with a feasible witness when one exists.

    Intended for desk scale; the search refuses with :class:`BudgetExceeded`
    once ``node_budget`` states have been expanded. A negative budget raises
    :class:`OracleError`. An infeasible answer already recorded on ``inst``
    is returned without a search, with its recorded node count.
    """
    if not 0 <= k <= inst.n:
        raise ProfileError(f"k={k} out of range 0..{inst.n}")
    _check_budget(node_budget)
    start = time.perf_counter()
    decided = _decided(inst)
    entry = decided.get(k)
    if entry is not None and entry[0] == _search.STATUS_INFEASIBLE:
        nodes = _charged(entry, node_budget)[1]
        return OracleResult(False, None, nodes, time.perf_counter() - start)
    values, supply = _class_data(inst)
    status, bins, nodes = _search.search_feasible(
        values, supply, inst.capacities.entries, inst.d, k, node_budget
    )
    elapsed = time.perf_counter() - start
    if status == _search.STATUS_BUDGET:
        raise _undecided(node_budget, nodes)
    decided[k] = (status, nodes, _bin1_load(values, bins))
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

    The first question is whether the instance is 1-feasible: the ``k = 1``
    search, which leaves bin 1 free, asked once per instance. When
    ``decide(inst, 1)`` has already answered it, its recorded answer is read
    and no search runs. If the instance is not 1-feasible,
    :class:`OracleError` is raised. Otherwise the load that search left in
    bin 1 is the upper end of a bisection on the bin-1 capacity ``W``: each
    later probe decides 0-feasibility with capacities ``(W, C_2, ...,
    C_n)``. A feasible probe sets the upper end to the load its bin 1
    carries, which is achievable and at most ``W``; an infeasible one sets
    the lower end to ``W + 1``. The lower end starts at
    ``max(d*w_n, d*sum(w) - sum(C_2..C_n))``: bin 1 holds ``d`` balls of
    weight at least ``w_n``, and bins 2..n hold no more than their
    capacities. Both ends bound W^min at every step, so the answer is exact.
    ``node_budget`` caps the nodes summed over all probes, a recorded first
    answer counting its nodes as a fresh search would; when it runs out,
    :class:`BudgetExceeded` is raised; a negative one raises
    :class:`OracleError`.
    """
    _check_budget(node_budget)
    values, supply = _class_data(inst)
    rest = inst.capacities.entries[1:]
    d, w = inst.d, inst.weights.entries
    decided = _decided(inst)
    entry = decided.get(1)
    if entry is None:
        # The k = 1 search never reads bin 1's capacity, so this is the
        # search decide(inst, 1) makes; d*w_1 there bounds nothing.
        status, bins, nodes = _search.search_feasible(
            values, supply, (d * w[0],) + rest, d, 1, node_budget
        )
        if status == _search.STATUS_BUDGET:
            raise _undecided(node_budget, nodes)
        entry = decided[1] = (status, nodes, _bin1_load(values, bins))
    _, used, hi = _charged(entry, node_budget)
    if hi is None:
        raise OracleError("instance is not 1-feasible; minimum bin-1 load undefined")

    def bin1_load(cap1: int) -> int | None:
        """The bin-1 load of a 0-feasible assignment under ``cap1``, or None."""
        nonlocal used
        status, bins, nodes = _search.search_feasible(
            values, supply, (cap1,) + rest, d, 0, node_budget - used
        )
        used += nodes
        if status == _search.STATUS_BUDGET:
            raise _undecided(node_budget, used)
        return _bin1_load(values, bins)

    lo = max(d * w[-1], d * sum(w) - sum(rest))
    while lo < hi:
        mid = (lo + hi) // 2
        load = bin1_load(mid)
        if load is None:
            lo = mid + 1
        else:
            hi = load
    return hi
