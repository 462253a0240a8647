"""Seeded instance generation for the benchmark.

Everything here is the benchmark's own arithmetic: the correction constant
comes from the gap identity ``b(w) = sum over positions 2..n of (gap - 1)``
(asserted by the acceptance suite and cross-checked against
``hmbp.b_constant`` in ``test_perfbench.py``), and the multiplicity threshold
is the paper's ``n^3 * w1 * (2n + w1)``. The package under test only receives
the finished profiles, so set-up time does not move when ``hmbp.core`` does.

Each workload is a fixed catalogue of instance *shapes* plus a per-seed
variation. The shapes come from ``CATALOGUE_SEED`` and never change; the run's
``--seed`` picks the concrete numbers and the answer order. Shape decides
cost (W^min search time alone spans four orders of magnitude between desk
shapes), so drawing shapes per seed would make p50/p90 differ between seeds
by more than any useful regression bound.
"""

from __future__ import annotations

import random
from fractions import Fraction

CATALOGUE_SEED = 20190905


# -- arithmetic on plain tuples ---------------------------------------------


def gap_b(w: tuple[int, ...]) -> int:
    """Correction constant of a non-increasing profile via the gap identity."""
    values = sorted(set(w), reverse=True)
    if len(values) < 2:
        return 0
    top, second = values[0], values[1]
    pred = {values[t]: values[t - 1] for t in range(1, len(values))}
    return sum((top - second if v == top else pred[v] - v) - 1 for v in w[1:])


def threshold(w: tuple[int, ...]) -> int:
    n, w1 = len(w), w[0]
    return n**3 * w1 * (2 * n + w1)


def corrected_slack(w, d, caps) -> list[int]:
    """Slack of every corrected suffix condition (index 0 is the full profile)."""
    n = len(w)
    return [
        sum(caps[i:]) - d * sum(w[i:]) - gap_b(w[i:]) for i in range(n)
    ]


def guaranteed_feasible(w, d, caps) -> bool:
    """The criteria's certificate: non-constant, d at threshold, no negative slack."""
    return (
        w[0] != w[-1]
        and d >= threshold(w)
        and min(corrected_slack(w, d, caps)) >= 0
    )


def tight_caps(w, d) -> list[int]:
    """Capacities meeting every corrected suffix condition with equality,
    raised to the running maximum from the right where they dip."""
    n = len(w)
    caps = []
    b_next = 0
    for i in range(n - 1, -1, -1):
        b_i = gap_b(w[i:])
        caps.append(d * w[i] + b_i - b_next)
        b_next = b_i
    caps.reverse()
    for j in range(n - 2, -1, -1):
        caps[j] = max(caps[j], caps[j + 1])
    return caps


def balanced_caps(w, d, s) -> tuple[int, ...]:
    """Total ``d*sum(w) + b(w) + s`` split evenly, larger parts first."""
    n = len(w)
    q, r = divmod(d * sum(w) + gap_b(w) + s, n)
    return tuple(q + 1 if j < r else q for j in range(n))


def squeezed_caps(w, d, frac) -> tuple[int, ...]:
    """Tight capacities with a share of the head bins' capacity moved to the
    middle bins, as in ``test_squeezed_capacities_force_long_descent``: the
    descent must shed that load and runs the matching and gap-shrinking
    moves on the way."""
    base = tight_caps(w, d)
    h = len(w) // 2
    move = int((base[0] - base[h]) * frac)  # frac is a Fraction: exact floor
    caps = list(base)
    caps[0] -= move
    caps[1] -= move // 2
    caps[h] += move
    caps[h + 1] += move // 2
    return tuple(sorted(caps, reverse=True))


def shifted(w, caps, d, a):
    """Add ``a`` to every weight and ``d*a`` to every capacity. The exact
    search explores the same tree on the shifted instance."""
    return tuple(v + a for v in w), tuple(c + d * a for c in caps)


# -- shape catalogues ---------------------------------------------------------


def _profile(rng, n, w1):
    """Non-increasing profile of length n with top w1, bottom 0."""
    while True:
        inner = sorted((rng.randint(0, w1) for _ in range(n - 2)), reverse=True)
        w = (w1, *inner, 0)
        if len(set(w)) >= min(3, w1 + 1):
            return w


def _distinct(rng, n, span):
    return tuple(sorted(rng.sample(range(span), n), reverse=True))


# (n, w1) strata for the descent mix; d = threshold(w) ranges 2,112..6,048.
DESCENT_STRATA = ((4, 3), (5, 2), (5, 3), (6, 2), (7, 1))
DESCENT_PER_SHAPE = 3
SQUEEZE_PERMILLE = (300, 360)
THIRD = Fraction(1, 3)

# ROADMAP baseline cases, pinned by the fingerprint test.
DESCENT_ANCHORS = (
    ("anchor-balanced-3210", (3, 2, 1, 0), "balanced"),
    ("anchor-balanced-553110", (5, 5, 3, 1, 1, 0), "balanced"),
    ("anchor-squeezed-664210", (6, 6, 4, 2, 1, 0), "squeezed"),
)


def descent_shapes():
    """[(key, w, shape)] with every squeezed entry certified at 1/3 squeeze."""
    rng = random.Random(CATALOGUE_SEED)
    out = list(DESCENT_ANCHORS)
    seen = set()
    for n, w1 in DESCENT_STRATA:
        for shape in ("balanced", "squeezed"):
            for k in range(DESCENT_PER_SHAPE):
                while True:
                    w = _profile(rng, n, w1)
                    d = threshold(w)
                    if (w, shape) in seen:
                        continue
                    if shape == "balanced" or guaranteed_feasible(
                        w, d, squeezed_caps(w, d, THIRD)
                    ):
                        break
                seen.add((w, shape))
                out.append((f"{shape}-n{n}-w{w1}-{k}", w, shape))
    return out


def descent_instances(seed):
    """[(key, w, d, caps)] for one seed: balanced slack and squeeze share vary."""
    rng = random.Random(seed)
    out = []
    for key, w, shape in descent_shapes():
        d = threshold(w)
        n = len(w)
        if key == "anchor-squeezed-664210":
            caps = squeezed_caps(w, d, THIRD)
        elif key.startswith("anchor-"):
            caps = balanced_caps(w, d, 5 * n)
        elif shape == "balanced":
            caps = balanced_caps(w, d, rng.randint(4 * n, 6 * n))
        else:
            caps = squeezed_caps(w, d, Fraction(rng.randint(*SQUEEZE_PERMILLE), 1000))
            if not guaranteed_feasible(w, d, caps):
                caps = squeezed_caps(w, d, THIRD)
        out.append((key, w, d, caps))
    rng.shuffle(out)
    return out


# Cases of benchmarks/kernel_bench.py: (key, d, w, caps or None for the
# extremal witness of w at d). Unshifted, so their node counts stay pinned.
KERNEL_BENCH_CASES = (
    ("kb-six-bin-feasible", 6, (5, 5, 3, 1, 1, 0), (17, 17, 17, 17, 17, 8)),
    ("kb-six-bin-extremal", 6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0)),
    ("kb-distinct-extremal-8", 8, (6, 5, 4, 2, 1, 0), None),
    ("kb-distinct-extremal-10", 10, (6, 5, 4, 2, 1, 0), None),
    ("kb-distinct-extremal-12", 12, (6, 5, 4, 2, 1, 0), None),
    (
        "kb-seven-distinct-near-tight",
        9,
        (7, 6, 5, 4, 3, 2, 1),
        tuple(9 * v + 3 for v in (7, 6, 5, 4, 3, 2, 1)),
    ),
)
# Near-tight shapes per n. An n = 8 shape can take the whole node budget
# (about 2.5 s) before W^min refuses, so there are fewer of them.
DESK_PER_N = {5: 13, 6: 13, 7: 10, 8: 3}
# More n = 5 and 6 shapes, drawn after the others: cheap answers (0.2-25 ms)
# that fill the middle of the latency distribution, so that p50 does not
# jump between two distant items, and that put ten answers of a pass above p90.
DESK_EXTRA_PER_N = {5: 50, 6: 50}
DESK_RELAXED = 5
DESK_MAX_SHIFT = 30


def desk_shapes():
    """Near-tight desk shapes ``C = d*w + s`` and relaxed-witness shapes."""
    rng = random.Random(CATALOGUE_SEED + 1)
    extra_rng = random.Random(CATALOGUE_SEED + 3)
    tight = []

    def draw(source, n, k):
        w = _distinct(source, n, n + 3)
        d = source.randint(6, 20)
        s = source.randint(1, 3)
        tight.append((f"tight-n{n}-{k}", w, d, tuple(d * v + s for v in w)))

    for n, count in DESK_PER_N.items():
        for k in range(count):
            draw(rng, n, k)
    relaxed = []
    for k in range(DESK_RELAXED):
        n = rng.randint(5, 6)
        w = _distinct(rng, n, n + 3)
        relaxed.append((f"relaxed-n{n}-{k}", w, rng.randint(n, n + 4), rng.randint(2, n)))
    for n, count in DESK_EXTRA_PER_N.items():
        for k in range(DESK_PER_N[n], DESK_PER_N[n] + count):
            draw(extra_rng, n, k)
    return tight, relaxed


def desk_instances(seed):
    """Items for oracle-desk: ``("plain", key, d, w, caps)``,
    ``("extremal", key, d, w, None)`` or ``("relaxed", key, d, w, i0)``."""
    rng = random.Random(seed)
    out = []
    for key, d, w, caps in KERNEL_BENCH_CASES:
        out.append(("plain" if caps else "extremal", key, d, w, caps))
    tight, relaxed = desk_shapes()
    for key, w, d, caps in tight:
        ws, cs = shifted(w, caps, d, rng.randint(0, DESK_MAX_SHIFT))
        out.append(("plain", key, d, ws, cs))
    for key, w, d, i0 in relaxed:
        a = rng.randint(0, DESK_MAX_SHIFT)
        out.append(("relaxed", key, d, tuple(v + a for v in w), i0))
    rng.shuffle(out)
    return out


# Wide profiles: the pure kernel's recursion depth grows with n and raises
# RecursionError from about n = 46 on, so the strata straddle that edge.
SCALE_WIDE_N = (10, 14, 18, 22, 26, 30, 34, 38, 50, 54, 58, 60)
SCALE_WIDE_PER_N = 4
# More widths, drawn after the others: the answers between n = 18 and 38 are
# the middle and upper tail of the latency distribution, and with only every
# fourth width there p50 and p90 jumped between two distant items.
SCALE_EXTRA_WIDE_N = (20, 24, 28, 32)
# Large magnitudes: (decimal exponent of w1, instances per pass). The w1 =
# 10^6 answer alone takes about 3 s, most of it in b_constant.
SCALE_MAGNITUDES = ((3, 3), (4, 3), (5, 1), (6, 1))


SCALE_MAX_SHIFT = 30


def scale_shapes():
    """Fixed wide shapes ``(key, d, w, i0)``, ``i0`` the relaxed-witness
    index (1 means the extremal witness), and large-magnitude shapes
    ``(key, d, w, s)`` with capacities ``d*w + s``."""
    rng = random.Random(CATALOGUE_SEED + 2)
    wide = []

    def draw(source, n, k):
        w = _distinct(source, n, 2 * n)
        d = n + source.randint(0, 2)
        i0 = 1 if k % 2 == 0 else source.randint(2, n // 2)
        wide.append((f"wide-n{n}-{k}", d, w, i0))

    for n in SCALE_WIDE_N:
        for k in range(SCALE_WIDE_PER_N):
            draw(rng, n, k)
    magnitude = []
    for exp, count in SCALE_MAGNITUDES:
        for k in range(count):
            top = 10**exp + rng.randint(0, 10**exp // 50)
            mid = sorted(rng.sample(range(2, top), 2), reverse=True)
            w = (top, mid[0], mid[1], 1, 0)
            magnitude.append((f"mag-1e{exp}-{k}", 5 + rng.randint(0, 3), w, rng.randint(1, 3)))
    extra_rng = random.Random(CATALOGUE_SEED + 4)
    for n in SCALE_EXTRA_WIDE_N:
        for k in range(SCALE_WIDE_PER_N):
            draw(extra_rng, n, k)
    return wide, magnitude


def scale_instances(seed):
    """Items for scale: ``("wide", key, d, w, caps, i0)`` and
    ``("magnitude", key, d, w, caps, 1)``. The seed shifts every profile
    (the search explores the same tree) and orders the items."""
    rng = random.Random(seed)
    out = []
    wide, magnitude = scale_shapes()
    for key, d, w, i0 in wide:
        ws, cs = shifted(w, tuple(d * v + 1 for v in w), d, rng.randint(0, SCALE_MAX_SHIFT))
        out.append(("wide", key, d, ws, cs, i0))
    for key, d, w, s in magnitude:
        ws, cs = shifted(w, tuple(d * v + s for v in w), d, rng.randint(0, SCALE_MAX_SHIFT))
        out.append(("magnitude", key, d, ws, cs, 1))
    rng.shuffle(out)
    return out


BALANCED_CLI_FILES = (
    ("balanced", (3, 2, 1, 0)),
    ("balanced-3310", (3, 3, 1, 0)),
    ("balanced-4210", (4, 2, 1, 0)),
)


def cli_instances(seed):
    """Instance files for the cli workload: ``{name: (d, w, caps)}`` plus one
    malformed file text. Sizes keep each command's own work small, so
    interpreter start-up, import and the cli module dominate."""
    rng = random.Random(seed)
    files = {}
    files["six-bin"] = (6, (5, 5, 3, 1, 1, 0), (17, 17, 17, 17, 17, 8))
    # Solving at the threshold replays thousands of moves; these three
    # solves (and W^min on six-bin) are the share of answers above p90.
    for name, w in BALANCED_CLI_FILES:
        d = threshold(w)
        files[name] = (d, w, balanced_caps(w, d, rng.randint(16, 24)))
    w = _distinct(rng, 6, 9)
    d = rng.randint(6, 10)
    files["near-tight"] = (d, w, tuple(d * v + 1 for v in w))
    w = _distinct(rng, 5, 8)
    d = rng.randint(5, 8)
    caps = [d * v for v in w]
    caps[-1] -= 1  # bin n is short of its own diagonal load: criteria-infeasible
    files["infeasible"] = (d, w, tuple(caps))
    profiles = [_distinct(rng, 5, 8), _distinct(rng, 6, 9), (5, 5, 3, 1, 1, 0)]
    return files, profiles
