"""Naive reference search for cross-checking the oracle at tiny scale.

No pruning, no memoization, no clever ordering: enumerate every per-bin
count vector outright. Keep inputs tiny (n <= 4, d <= 3 or so).
"""

from hmbp.core import Instance


def _class_data(inst: Instance):
    # Derived here, not read from the library's class table, so the
    # reference stays independent of the code it checks.
    entries = inst.weights.entries
    values = sorted(set(entries), reverse=True)
    return values, [inst.d * entries.count(v) for v in values]


def _vectors(residual, d):
    """All count vectors summing to d within the residual supply."""
    m = len(residual)

    def rec(c, left):
        if c == m:
            if left == 0:
                yield ()
            return
        for x in range(min(residual[c], left) + 1):
            for rest in rec(c + 1, left - x):
                yield (x,) + rest

    yield from rec(0, d)


def decide_naive(inst: Instance, k: int) -> bool:
    values, supply = _class_data(inst)
    caps = inst.capacities.entries

    def fill(j, residual):
        if j < k:
            return True
        for vec in _vectors(residual, inst.d):
            if sum(x * v for x, v in zip(vec, values)) > caps[j]:
                continue
            if fill(j - 1, [r - x for r, x in zip(residual, vec)]):
                return True
        return False

    return fill(inst.n - 1, supply)


def min_bin1_naive(inst: Instance):
    """Exact minimum bin-1 load over 1-feasible assignments, or None."""
    values, supply = _class_data(inst)
    caps = inst.capacities.entries
    best = [None]

    def fill(j, residual, packed):
        if j == 0:
            if best[0] is None or packed > best[0]:
                best[0] = packed
            return
        for vec in _vectors(residual, inst.d):
            weight = sum(x * v for x, v in zip(vec, values))
            if weight > caps[j]:
                continue
            fill(j - 1, [r - x for r, x in zip(residual, vec)], packed + weight)

    fill(inst.n - 1, supply, 0)
    if best[0] is None:
        return None
    return inst.d * inst.weights.total - best[0]
