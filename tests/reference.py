"""Independent reference decider: the residual supplies each bin can leave.

Goes from the last bin down to bin ``k`` and keeps the set of residual
supplies that the bins filled so far can leave: each bin maps every residual
to the residuals left by the count vectors of ``d`` balls that fit its
capacity. There is no pruning, no ordering and no memo beyond the set, and
the classes are derived here from the instance's entries, not read from the
library's class table, so it shares no rule with the search kernel it
checks. The sets grow fast: keep it to desk scale (n <= 7, d <= 9).
"""

from operator import mul, sub

from hmbp.core import Instance


def _classes(inst: Instance):
    entries = inst.weights.entries
    values = sorted(set(entries), reverse=True)
    return values, tuple(inst.d * entries.count(v) for v in values)


def _fills(residual, d, c=0):
    """Every count vector of ``d`` balls, classes from ``c`` on, within
    ``residual``."""
    if c == len(residual) - 1:
        if residual[c] >= d:
            yield (d,)
        return
    for x in range(min(residual[c], d) + 1):
        for rest in _fills(residual, d - x, c + 1):
            yield (x,) + rest


def leave(values, supply, caps, d, k, budget=None):
    """One dict per bin ``n-1, ..., k``: every residual the bins from the
    last down to that one can leave, mapped to one ``(residual before, fill)``
    step that leaves it. The supply must hold ``d`` balls per bin. With a
    ``budget``, ``None`` once more fills than that have been tried."""
    layers = []
    frontier = {tuple(supply): None}
    tried = 0
    for j in range(len(caps) - 1, k - 1, -1):
        left = {}
        for residual in frontier:
            fills = list(_fills(residual, d))
            tried += len(fills)
            if budget is not None and tried > budget:
                return None
            for fill in fills:
                if sum(map(mul, fill, values)) <= caps[j]:
                    left.setdefault(tuple(map(sub, residual, fill)), (residual, fill))
        layers.append(left)
        frontier = left
    return layers


def decide(inst: Instance, k: int):
    """Bins ``0..n-1`` as ``{value: count}`` dicts of a ``k``-feasible
    assignment, or ``None`` when there is none. The free bins ``0..k-1``
    take the balls the others leave, ``d`` each, heaviest first."""
    values, supply = _classes(inst)
    d = inst.d
    layers = leave(values, supply, inst.capacities.entries, d, k)
    if layers and not layers[-1]:
        return None
    left = next(iter(layers[-1])) if layers else supply
    bins, residual = [], left
    for layer in reversed(layers):  # bin k first
        residual, fill = layer[residual]
        bins.append({v: x for v, x in zip(values, fill) if x})
    residual = list(left)
    free = []
    for _ in range(k):
        content, room = {}, d
        for c, v in enumerate(values):
            x = min(room, residual[c])
            if x:
                content[v] = x
                residual[c] -= x
                room -= x
        free.append(content)
    return free + bins


class TooManyFills(Exception):
    """The reference tried more count vectors than its budget allows."""


def min_bin1(inst: Instance, budget=None):
    """The least bin-1 load over the 1-feasible assignments, or ``None``
    when there is none: the lightest residual left for bin 1. With a
    ``budget``, :class:`TooManyFills` is raised once more fills than that
    have been tried."""
    values, supply = _classes(inst)
    layers = leave(values, supply, inst.capacities.entries, inst.d, 1, budget)
    if layers is None:
        raise TooManyFills(f"more than {budget} fills")
    left = layers[-1] if layers else {supply: None}
    return min((sum(map(mul, r, values)) for r in left), default=None)
