"""Per-column reference forms of the conjugate diagram and of b(w).

These are the direct definitions, one conjugate column per unit of ``w1``
(cost O(n * w1)), kept only to cross-check the O(n) library versions in
``hmbp.core``. Keep weights small.
"""

from hmbp.core import ConjugateProfile, ProfileError, WeightProfile


def conjugate_by_columns(w: WeightProfile, rows: int) -> ConjugateProfile:
    """Column ``j`` has height ``#{i : w_i >= j}``; runs merge equal heights."""
    nonzero = sum(1 for v in w.entries if v > 0)
    if rows < nonzero:
        raise ProfileError(f"rows={rows} smaller than {nonzero} nonzero parts")
    heights = [
        sum(1 for v in w.entries if v >= j) for j in range(1, w.entries[0] + 1)
    ]
    a0 = 0
    while a0 < len(heights) and heights[a0] == rows:
        a0 += 1
    runs: list[tuple[int, int]] = []
    for h in heights[a0:]:
        if runs and runs[-1][0] == h:
            runs[-1] = (h, runs[-1][1] + 1)
        else:
            runs.append((h, 1))
    return ConjugateProfile(rows=rows, a0=a0, runs=tuple(runs))


def expand(conj: ConjugateProfile) -> tuple[int, ...]:
    """The conjugate partition as an explicit tuple of column heights."""
    out = [conj.rows] * conj.a0
    for height, length in conj.runs:
        out.extend([height] * length)
    return tuple(out)


def b_by_run_overshoot(w: WeightProfile) -> int:
    """b(w) as the weighted sum of run overshoots of the conjugate diagram."""
    conj = conjugate_by_columns(w, w.n)
    if conj.k == 0:
        return 0
    total = 0
    prev_h = w.n
    for h, a in conj.runs:
        total += (prev_h - h) * (a - 1)
        prev_h = h
    last_h, last_a = conj.runs[-1]
    total += (last_h - 1) * (last_a - 1)
    return total
