"""Exhaustive search kernel.

Decides whether the constrained bins of an instance can each be filled with
exactly ``d`` balls within capacity. Bins are processed from the last index
down; within a bin, per-class counts are enumerated heaviest class first,
count descending. Branches die early when some window of the remaining bins
cannot hold even the lightest possible complement of the residual supply,
and infeasible ``(bin, residual)`` states are memoized. Neither rule needs
the capacities to be sorted, so ``oracle.min_bin1_weight`` can probe a
lowered bin-1 capacity with this same search.

The search is one loop over an explicit stack, so its Python stack depth
does not grow with the instance. A bin frame is the memo key of a bin being
filled; it is added to the memo when the bin's last choice fails. A choose
frame ``[c, d_left, cap_left, v, x, lo, j]`` is the count ``x`` of class
``c`` currently tried in bin ``j``; on failure it steps ``x`` down to ``lo``.
Every bin entry and every count tried is one node of the budget.

A count ``x`` of class ``c`` is tried only when the lightest ``d_left - x``
balls of the lighter classes still fit in ``cap_left - x*v``. Lowering
``x`` by one frees ``v`` of capacity and adds one ball of weight at most
``values[c+1] < v``, so this slack strictly grows as ``x`` falls: the counts
that pass form a range ``[lo, top]``. ``top`` is found by one test, or by
bisection when the largest count fails. The counts below it pass without a
test, and the counts above it are never tried, so they cost no node.

The lightest-balls weight comes from a table built at bin entry: the ball
counts and weights of the residual summed from the lightest class up. While
bin ``j`` chooses at class ``c``, the classes ``c+1..m-1`` still hold their
bin-entry residual, so each query is one ``bisect`` into that table.
``values`` must be distinct and descending.
"""

from __future__ import annotations

from bisect import bisect_left

STATUS_INFEASIBLE = 0
STATUS_FEASIBLE = 1
STATUS_BUDGET = 2


def _light_table(values, residual):
    """Ball counts and weights of the ``i`` lightest classes, ``i = 0..m``."""
    counts = [0]
    weights = [0]
    for c in range(len(values) - 1, -1, -1):
        counts.append(counts[-1] + residual[c])
        weights.append(weights[-1] + residual[c] * values[c])
    return counts, weights


def _lightest(values, counts, weights, q):
    """Weight of the ``q`` lightest balls of a light table, ``q <= counts[-1]``."""
    i = bisect_left(counts, q)
    if i == 0:
        return 0
    return weights[i - 1] + (q - counts[i - 1]) * values[-i]


def search_feasible(values, supply, caps, d, k, budget):
    """Fill bins ``k..n-1`` (0-based) within capacity, ``d`` balls each.

    Bins ``0..k-1`` are unconstrained and absorb whatever supply remains.
    Returns ``(status, bins, nodes)`` where ``bins`` maps each constrained
    bin index to its per-class count tuple on success, else ``None``.
    """
    values = tuple(values)
    residual = list(supply)
    caps = tuple(caps)
    n = len(caps)
    m = len(values)
    if k >= n:
        return STATUS_FEASIBLE, {}, 0

    cap_prefix = [0] * (n + 1)
    for t in range(n):
        cap_prefix[t + 1] = cap_prefix[t] + caps[t]

    tables = [None] * n
    chosen: dict[int, tuple[int, ...]] = {}
    memo: set = set()
    stack: list = []
    nodes = 0

    # The node to expand next: bin j, or (at_bin false) class c of bin j
    # with d_left balls and cap_left capacity still to place.
    at_bin = True
    j = n - 1
    c = d_left = cap_left = 0
    while True:
        nodes += 1
        if nodes > budget:
            return STATUS_BUDGET, None, nodes
        if at_bin:
            if j < k:
                return STATUS_FEASIBLE, chosen, nodes
            key = (j, tuple(residual))
            if key not in memo:
                if caps[j] >= 0:
                    counts, weights = tables[j] = _light_table(values, residual)
                    # Every suffix of the remaining constrained bins must be
                    # able to hold the lightest possible d*L balls of the
                    # residual.
                    for length in range(1, j - k + 2):
                        q = d * length
                        if q > counts[m] or (
                            cap_prefix[j + 1] - cap_prefix[j - length + 1]
                            < _lightest(values, counts, weights, q)
                        ):
                            break
                    else:
                        stack.append(key)
                        at_bin = False
                        c, d_left, cap_left = 0, d, caps[j]
                        continue
                memo.add(key)
        elif d_left == 0:
            # The top c frames are this bin's choices for classes 0..c-1.
            counts_j = tuple(frame[4] for frame in stack[len(stack) - c :])
            chosen[j] = counts_j + (0,) * (m - c)
            at_bin = True
            j -= 1
            continue
        elif c < m:
            counts, weights = tables[j]
            v = values[c]
            lo = d_left - counts[m - c - 1]
            if lo < 0:
                lo = 0
            hi = residual[c] if residual[c] <= d_left else d_left
            if v > 0 and cap_left // v < hi:
                hi = cap_left // v
            # Largest passing count: passing counts are the range [lo, top].
            if hi < lo:
                top = hi
            elif cap_left - hi * v >= _lightest(values, counts, weights, d_left - hi):
                top = hi
            else:
                top, fail = lo - 1, hi
                while fail - top > 1:
                    mid = (top + fail) // 2
                    if cap_left - mid * v >= _lightest(
                        values, counts, weights, d_left - mid
                    ):
                        top = mid
                    else:
                        fail = mid
            if top >= lo:
                stack.append([c, d_left, cap_left, v, top, lo, j])
                residual[c] -= top
                c, d_left, cap_left = c + 1, d_left - top, cap_left - top * v
                continue

        # The node just expanded failed: resume the nearest open choice.
        while stack:
            frame = stack[-1]
            if type(frame) is tuple:  # a bin whose every choice failed
                stack.pop()
                memo.add(frame)
                continue
            c, d_left, cap_left, v, x, lo, j = frame
            residual[c] += x
            if x == lo:
                stack.pop()
                continue
            x -= 1
            frame[4] = x
            residual[c] -= x
            c, d_left, cap_left = c + 1, d_left - x, cap_left - x * v
            at_bin = False
            break
        else:
            return STATUS_INFEASIBLE, None, nodes
