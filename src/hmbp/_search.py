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
does not grow with the instance. A bin frame is the index ``j`` of a bin
being filled. A choose frame ``[c, d_left, cap_left, v, x, lo, j]`` is the
count ``x >= 1`` of class ``c`` currently tried in bin ``j``; on failure it
steps ``x`` down to ``lo``, and it leaves the stack when ``x`` reaches 0,
since a count of 0 changes nothing to undo. Every bin entry and every count
tried is one node of the budget, and so is the fill of a bin: a count that
fills bin ``j`` counts that node, checks the budget and goes straight to bin
``j-1``'s entry. The stack is the only record of the search path, and
``_answer`` reads it once, at the feasible return: the choose frames above
each bin frame give that bin's ``(class, count)`` pairs, classes ascending,
counts ``> 0``. The free bins ``0..k-1`` take the residual left at that
return, ``d`` balls each, heaviest class first. So the answer covers every
bin and costs its nonzero counts, not ``n*m``.

The memo holds one set per bin, made at the bin's first failure: the
residuals at which bin ``j`` failed, at its entry or once its last choice
failed, when its choices are undone and the residual is back at its entry
value. A memo serves only a search that comes back to a bin, which takes a
choice still open below it: a choose frame whose count can fall further
(``x > lo``). The search counts those frames, and a failure that leaves
none returns infeasible at once, with nothing unwound and no key built.
Otherwise the residual's tuple is built only to look it up in a set that
exists, or to add it when the bin fails. A search that never reopens a
choice, as the wide witness checks do, builds no key at all.

A count ``x`` of class ``c`` is tried only when the lightest ``d_left - x``
balls of the lighter classes still fit in ``cap_left - x*v``. Lowering
``x`` by one frees ``v`` of capacity and adds one ball of weight at most
``values[c+1] < v``, so this slack strictly grows as ``x`` falls: the counts
that pass form a range ``[lo, top]``. The counts below ``top`` pass without a
test, and the counts above it are never tried, so they cost no node.

The lightest-balls weight comes from a table built at bin entry: the ball
counts and weights of the residual summed from the lightest class up. While
bin ``j`` chooses at class ``c``, the classes ``c+1..m-1`` still hold their
bin-entry residual, so the table serves every choice of the bin; the search
holds the current bin's table in locals, set at bin entry and when a choice
resumes, and keeps it per bin only for those resumes. It is not carried over
to the next bin, whose entry finds the table's classes changed by the bin
just filled. Inside one segment of the table the slack is linear in ``x``,
so ``top`` is solved in closed form (``_top_count``): one test of the
largest count, then a bisection over segments, not counts, and one ceiling
division.

Bin entry skips the lightest classes that hold no balls. The last bins,
usually the smallest, are filled first, so the lightest classes tend to
empty first. Along a search path the residual only shrinks, so the count
``low`` of empty lightest classes is kept per bin, and bin ``j`` resumes
its scan from bin ``j+1``'s. The table's ``low + 1`` leading zero entries
are written at once, and the classes above them are summed only until the
table holds ``d`` balls: no choice asks for more, and a class whose lighter
classes pass the table's end gets ``lo = 0`` without a lookup.

Let ``f_j(L)`` be the room of window ``j, ..., j-L+1`` less the lightest
``d*L`` balls of the residual at bin ``j``'s entry. Whatever ``d`` balls
bin ``j`` takes, ``f_{j-1}(L) >= f_j(L+1) - f_j(1)``, in any capacity
order: window ``j-1`` of length ``L`` plus bin ``j`` is window ``j`` of
length ``L+1``; and bin ``j`` takes at most ``d`` of the ``d*(L+1)``
lightest balls, any ``d*L`` of the rest weigh at most their heaviest
``d*L``, so ``lightest_j(d*(L+1)) >= lightest_{j-1}(d*L) + lightest_j(d)``.
Chained down from the last bin ``w`` that walked its windows, every window
of a bin ``j`` below it keeps
``f_j(L) >= f_w(L + w - j) - (f_{j+1}(1) + ... + f_w(1))``. So a walk
keeps the suffix minima ``SM_w(t) = min over L >= t of f_w(L)``, and bin
``j`` needs no walk of its own when ``SM_w(w - j + 2)`` is at least the sum
of the one-bin slacks ``f_s(1)``, ``s = j+1..w``: then every window of
length ``L >= 2`` fits, and bin ``j`` checks only ``f_j(1) >= 0``. Bin
``j`` keeps the list of its walk, or else the one it inherited, and that
sum from ``w`` down to ``j``; the first bin walks. ``_least_slack`` walks
the windows once, with running sums of room and balls carried on from the
table's end, and returns the suffix minima as a list indexed by the lowest
bin they reach below, or ``None`` at the first negative window.

The inputs are checked once at entry, in ``O(m)``. The supply fills every
bin, so bin ``j`` is entered with ``d*(j+1)`` balls left, at least the
``d*(j-k+1)`` that its widest window asks for, and some class holds balls.

Most choices of a deep search set a count to 0. When ``lo`` is 0, one ball
of class ``c`` fits exactly when ``v <= t = cap_left - lightest(d_left - 1)``,
and ``t`` stays fixed while counts are 0, because the table, ``d_left`` and
``cap_left`` do. So a run of classes heavier than ``t`` is crossed in one
step: one bisection over the table finds ``t``, one more checks that count 0
fits, and one over ``values`` finds the run's end. The run still costs one
node per class, and a budget that runs out inside it stops the search at the
same node as a class-by-class walk would, with fewer bisections than nodes.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from operator import gt

STATUS_INFEASIBLE = 0
STATUS_FEASIBLE = 1
STATUS_BUDGET = 2


def _light_table(values, residual, low, q):
    """Ball counts and weights of the ``i`` lightest classes, from ``i = 0``
    up to the first ``i`` that holds at least ``q >= 1`` balls, or ``m``.

    The ``low`` lightest classes must hold no balls: their ``low + 1``
    leading zero entries are written at once, and only the classes above
    them are summed.
    """
    counts = [0] * (low + 1)
    weights = counts[:]
    count = weight = 0
    for c in range(len(values) - 1 - low, -1, -1):
        count += residual[c]
        weight += residual[c] * values[c]
        counts.append(count)
        weights.append(weight)
        if count >= q:
            break
    return counts, weights


def _least_slack(values, residual, counts, weights, caps, d, j, k):
    """Suffix minima of the slacks of the windows ``j, ..., j-L+1``,
    ``L >= 2``, of bins ``k..j``, or ``None`` when one of them is negative.

    Entry ``i`` of the list, ``i = 0..j-k``, is the least slack of the
    windows whose lowest bin is below ``k + i``: ``inf`` at ``i = 0``, and
    ``SM_j(j-b+2)`` at ``i = b - k``, the floor a lower bin ``b`` chains down
    from. The sums of the ``q = d*L`` lightest balls go on from the end of
    bin ``j``'s light table, which holds at least ``d`` balls, and are not
    stored."""
    slacks = []
    c = len(values) - len(counts)  # the lightest class not in the table
    count, weight, room, q = counts[-1], weights[-1], caps[j], d
    for cap in reversed(caps[k:j]):
        q += d
        room += cap
        while count < q:
            count += residual[c]
            weight += residual[c] * values[c]
            c -= 1
        # The q-th lightest ball is in class c + 1, the last one summed.
        slack = room - weight + (count - q) * values[c + 1]
        if slack < 0:
            return None
        slacks.append(slack)
    floors = [inf]
    least = inf
    for slack in reversed(slacks):
        if slack < least:
            least = slack
        floors.append(least)
    return floors


def _top_count(values, counts, weights, v, d_left, cap_left, lo, hi):
    """Largest count ``x`` in ``[lo, hi]`` of a class of weight ``v`` whose
    lightest completion fits, or ``lo - 1`` when none does.

    ``x`` fits when the ``q = d_left - x`` lightest balls of the light table
    weigh at most ``cap_left - x*v``, that is when ``q*v - lightest(q)`` is
    at least ``need = d_left*v - cap_left``. ``lo`` must leave
    ``q <= d_left - lo`` within the balls lighter than ``v``; then that
    left side grows with ``q`` and is linear inside each table segment, so
    one bisection over the segments finds the first that reaches ``need``
    and one ceiling division solves it there.
    """
    if hi < lo:
        return lo - 1
    need = d_left * v - cap_left
    q = d_left - hi
    i = bisect_left(counts, q)
    light = weights[i - 1] + (q - counts[i - 1]) * values[-i] if i else 0
    if q * v - light >= need:
        return hi
    if hi == lo:
        return lo - 1
    # First segment whose end passes, or else the segment of q_max.
    q_max = d_left - lo
    end = bisect_left(counts, q_max, i)
    while i < end:
        mid = (i + end) // 2
        if counts[mid] * v - weights[mid] >= need:
            end = mid
        else:
            i = mid + 1
    # Segment i adds balls of weight u: q*(v - u) >= need + weights - counts*u.
    u = values[-i]
    q = (weights[i - 1] - counts[i - 1] * u + need - 1) // (v - u) + 1
    return d_left - q if q <= q_max else lo - 1


def _answer(residual, d, stack):
    """Every bin's ``(class, count)`` pairs, bin 0 first: the free bins
    share ``residual``, ``d`` balls each, and bins ``k..n-1`` are read off
    ``stack`` from the top, where each bin's choices lie above its frame."""
    bins = []
    pairs, need = [], d
    for c, left in enumerate(residual):
        while left:
            take = left if left < need else need
            pairs.append((c, take))
            left -= take
            need -= take
            if not need:
                bins.append(tuple(pairs))
                pairs, need = [], d
    for frame in reversed(stack):
        if type(frame) is int:
            bins.append(tuple(reversed(pairs)))
            pairs = []
        else:
            pairs.append((frame[0], frame[4]))
    return bins


def search_feasible(values, supply, caps, d, k, budget):
    """Fill bins ``k..n-1`` (0-based) within capacity, ``d`` balls each.

    Bins ``0..k-1`` are unconstrained and take whatever supply remains,
    ``d`` balls each, heaviest class first from bin 0.
    ``values`` must be strictly descending with one supply count ``>= 0`` per
    class, ``d`` at least 1, ``k`` at least 0, and the supply must hold
    exactly ``d`` balls per bin, else :class:`ValueError` is raised.
    Returns ``(status, bins, nodes)`` where ``bins`` is, on success, a list
    of every bin's ``(class, count)`` pairs, bin 0 first, else ``None``: the
    classes the bin holds, ascending, each with its count ``> 0``.
    """
    values = tuple(values)
    neg_values = [-u for u in values]  # ascending, for bisection
    residual = list(supply)
    caps = tuple(caps)
    n = len(caps)
    m = len(values)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    if len(residual) != m:
        raise ValueError(f"{len(residual)} supply counts for {m} classes")
    if not all(map(gt, values, values[1:])):
        raise ValueError(f"values {values} are not strictly descending")
    if min(residual, default=0) < 0:
        raise ValueError(f"supply {tuple(residual)} has a negative count")
    if sum(residual) != d * n:
        raise ValueError(
            f"supply of {sum(residual)} balls does not fill {n} bins of {d}"
        )
    if k >= n:
        return STATUS_FEASIBLE, _answer(residual, d, []), 0

    tables = [None] * n
    # lows[j]: how many lightest classes are empty at bin j's entry.
    lows = [0] * (n + 1)
    # floors[j], spent[j]: the suffix minima of the last walk at or above
    # bin j, and the one-bin slacks summed from that walk's bin down to j.
    # Bin n - 1 finds nothing proven and walks.
    floors = [None] * n + [[-1] * (n - k)]
    spent = [0] * (n + 1)
    # memo[j]: the residuals at which bin j failed; None until its first.
    memo = [None] * n
    stack: list = []
    # How many choose frames on the stack can still lower their count.
    opened = 0
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
                return STATUS_FEASIBLE, _answer(residual, d, stack), nodes
            seen = memo[j]
            key = None if seen is None else tuple(residual)
            if key is None or key not in seen:
                # Classes empty at bin j + 1's entry are still empty.
                low = lows[j + 1]
                while not residual[m - 1 - low]:
                    low += 1
                lows[j] = low
                counts, weights = _light_table(values, residual, low, d)
                covered = m - len(counts)
                # Window j alone: its room less its d lightest balls, the
                # last of which is in the table's last class.
                i = len(counts) - 1
                slack = caps[j] - weights[i - 1] - (d - counts[i - 1]) * values[-i]
                if slack >= 0:
                    below = floors[j + 1]
                    total = spent[j + 1]
                    if below[j - k] < total:
                        below = _least_slack(
                            values, residual, counts, weights, caps, d, j, k
                        )
                        total = 0
                    if below is not None:
                        floors[j] = below
                        spent[j] = total + slack
                        tables[j] = counts, weights, covered
                        stack.append(j)
                        at_bin = False
                        c, d_left, cap_left = 0, d, caps[j]
                        continue
                # Bin j fails at its entry. Only a search that goes on can
                # come back to it.
                if opened:
                    if key is None:
                        memo[j] = {tuple(residual)}
                    else:
                        seen.add(key)
        elif c < m:
            v = values[c]
            hi = residual[c] if residual[c] <= d_left else d_left
            if v > 0 and cap_left // v < hi:
                hi = cap_left // v
            # Past the table, lighter classes hold more than d_left balls.
            lo = d_left - counts[m - c - 1] if c >= covered else 0
            if lo <= 0:
                # The d_left lightest balls are all lighter than v, and one
                # ball of weight u fits beside the d_left - 1 lightest when
                # u <= t.
                lo = 0
                q = d_left - 1
                i = bisect_left(counts, q)
                t = cap_left - (
                    weights[i - 1] + (q - counts[i - 1]) * values[-i] if i else 0
                )
            if lo or v <= t:
                top = _top_count(values, counts, weights, v, d_left, cap_left, lo, hi)
                if top >= lo:
                    if top:
                        stack.append([c, d_left, cap_left, v, top, lo, j])
                        if top > lo:
                            opened += 1
                        residual[c] -= top
                        if top == d_left:
                            # The bin is full: its fill is one node, and the
                            # next node is bin j - 1's entry.
                            nodes += 1
                            if nodes > budget:
                                return STATUS_BUDGET, None, nodes
                            at_bin = True
                            j -= 1
                            continue
                    c, d_left, cap_left = c + 1, d_left - top, cap_left - top * v
                    continue
            else:
                # Count 1 fails, and count 0 fits when the d_left-th lightest
                # ball weighs at most t. Then every class before the first
                # of weight at most t takes 0, at one node each; that ball's
                # class m - i bounds the run.
                i = bisect_left(counts, d_left, i)
                if values[-i] <= t:
                    end = bisect_left(neg_values, -t, c + 1, m - i)
                    nodes += end - c - 1
                    if nodes > budget:
                        return STATUS_BUDGET, None, budget + 1
                    c = end
                    continue

        # The node just expanded failed. With no open choice left, every
        # frame would unwind to an infeasible answer: nothing is memoized.
        if not opened:
            return STATUS_INFEASIBLE, None, nodes
        # Resume the nearest open choice. The table in hand is that of the
        # bin whose node just failed, if that bin has choices on the stack.
        failed = j
        while True:
            frame = stack[-1]
            if type(frame) is int:  # a bin whose every choice failed
                stack.pop()
                # Its choices are undone: residual is back at its entry.
                seen = memo[frame]
                if seen is None:
                    memo[frame] = {tuple(residual)}
                else:
                    seen.add(tuple(residual))
                continue
            c, d_left, cap_left, v, x, lo, j = frame
            if x > lo:
                break
            residual[c] += x
            stack.pop()
        # The count falls by one: one ball of class c goes back.
        residual[c] += 1
        x -= 1
        if x == lo:
            opened -= 1
        if x:
            frame[4] = x
        else:
            stack.pop()
        if j != failed:
            counts, weights, covered = tables[j]
        # A lowered count leaves at least one ball to place.
        c, d_left, cap_left = c + 1, d_left - x, cap_left - x * v
        at_bin = False
