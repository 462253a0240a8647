"""Exhaustive search kernel.

Decides whether the constrained bins of an instance can each be filled with
exactly ``d`` balls within capacity. Bins are processed from the last index
down; within a bin, per-class counts are enumerated heaviest class first,
count descending. Branches die early when some window of the remaining bins
cannot hold even the lightest possible complement of the residual supply,
and infeasible ``(bin, residual)`` states are memoized. Neither rule needs
the capacities to be sorted, so ``oracle.min_bin1_weight`` can probe a
lowered bin-1 capacity with this same search.
"""

from __future__ import annotations

STATUS_INFEASIBLE = 0
STATUS_FEASIBLE = 1
STATUS_BUDGET = 2


class _BudgetExceeded(Exception):
    pass


def search_feasible(values, supply, caps, d, k, budget):
    """Fill bins ``k..n-1`` (0-based) within capacity, ``d`` balls each.

    Bins ``0..k-1`` are unconstrained and absorb whatever supply remains.
    Returns ``(status, bins, nodes)`` where ``bins`` maps each constrained
    bin index to its per-class count tuple on success, else ``None``.
    """
    values = tuple(values)
    supply = list(supply)
    caps = tuple(caps)
    n = len(caps)
    m = len(values)
    nodes = 0
    if k >= n:
        return STATUS_FEASIBLE, {}, nodes

    cap_prefix = [0] * (n + 1)
    for t in range(n):
        cap_prefix[t + 1] = cap_prefix[t] + caps[t]

    residual = supply
    picks = [[0] * m for _ in range(n)]
    chosen: dict[int, tuple[int, ...]] = {}
    memo: set = set()
    counter = [0]

    def tick():
        counter[0] += 1
        if counter[0] > budget:
            raise _BudgetExceeded

    def lightest_ok(j):
        # Every suffix of the remaining constrained bins must be able to hold
        # the lightest possible d*L balls of the residual supply.
        need_balls = 0
        light_weight = 0
        c = m - 1
        avail = residual[c]
        for length in range(1, j - k + 2):
            need = d * length
            while need_balls < need:
                if avail == 0:
                    if c == 0:
                        return False
                    c -= 1
                    avail = residual[c]
                    continue
                take = avail if avail <= need - need_balls else need - need_balls
                light_weight += take * values[c]
                need_balls += take
                avail -= take
            if cap_prefix[j + 1] - cap_prefix[j - length + 1] < light_weight:
                return False
        return True

    def min_completion(c, q):
        # Weight of the lightest q balls available in classes c..m-1.
        total = 0
        cc = m - 1
        while q > 0 and cc >= c:
            take = residual[cc] if residual[cc] <= q else q
            total += take * values[cc]
            q -= take
            cc -= 1
        return total

    def fill_from(j):
        tick()
        if j < k:
            return STATUS_FEASIBLE
        key = (j, tuple(residual))
        if key in memo:
            return STATUS_INFEASIBLE
        if caps[j] < 0 or not lightest_ok(j):
            memo.add(key)
            return STATUS_INFEASIBLE
        status = choose(j, 0, d, caps[j])
        if status == STATUS_INFEASIBLE:
            memo.add(key)
        return status

    def choose(j, c, d_left, cap_left):
        tick()
        if d_left == 0:
            chosen[j] = tuple(picks[j][:c]) + (0,) * (m - c)
            return fill_from(j - 1)
        if c == m:
            return STATUS_INFEASIBLE
        rest = 0
        for cc in range(c + 1, m):
            rest += residual[cc]
        lo = d_left - rest
        if lo < 0:
            lo = 0
        v = values[c]
        hi = residual[c] if residual[c] <= d_left else d_left
        if v > 0:
            by_cap = cap_left // v
            if by_cap < hi:
                hi = by_cap
        for x in range(hi, lo - 1, -1):
            new_cap = cap_left - x * v
            if min_completion(c + 1, d_left - x) > new_cap:
                continue
            picks[j][c] = x
            residual[c] -= x
            status = choose(j, c + 1, d_left - x, new_cap)
            residual[c] += x
            if status == STATUS_FEASIBLE:
                return status
        return STATUS_INFEASIBLE

    try:
        status = fill_from(n - 1)
    except _BudgetExceeded:
        return STATUS_BUDGET, None, counter[0]
    nodes = counter[0]
    if status == STATUS_FEASIBLE:
        return status, chosen, nodes
    return status, None, nodes

