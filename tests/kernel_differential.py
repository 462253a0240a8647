"""Differential check of the search kernel against another copy of it.

Calls ``search_feasible`` of this tree and of another ``_search.py`` (for
instance the one of the commit before a kernel change, taken with
``git show REV:src/hmbp/_search.py > old_search.py``) on the same seeded
random calls, and exits non-zero when any ``(status, bins, nodes)`` differs
or a feasible answer of this tree's kernel is not a valid assignment.
Both kernels are timed on every call, alternating which of the two runs
first, and the summary line ends with each side's total seconds.
Only the constrained bins ``k..n-1`` are compared, so a kernel that returns
just those bins, by index, compares equal to one that returns every bin.
Each bin is compared as its ascending ``(class, count)`` pairs with
``count > 0``, so a kernel that reports a bin as a dense per-class row
compares equal to one that reports its pairs.
The calls mix sorted and unsorted capacities (as the W^min probes pass),
empty lightest classes, ``k = 0`` and random ``k``, and small and large node
budgets. ``--wide`` draws wider instances (n = 13..40, up to 30 classes).
``--near-tight`` draws the wide answers the paper's witnesses ask for:
distinct weights at n = 30..60 with capacities ``d*v + 1``, or the
extremal witness of the same weights (``hmbp.witness``) at ``k = 0`` or 1;
the seed draws the weights, so every seed searches other trees.
Run it as
``PYTHONPATH=src python tests/kernel_differential.py old_search.py --calls 30000``.
"""

import argparse
import importlib.util
import random
import sys
import time
from collections import Counter

from hmbp import _search
from hmbp.core import WeightProfile
from hmbp.witness import extremal_capacities


def load_kernel(path):
    spec = importlib.util.spec_from_file_location("other_search", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def normalised(answer, k, n):
    """``(status, bins, nodes)`` with bins ``k..n-1`` as their nonzero
    pairs; a bin is never empty, so its first entry tells pairs from a
    dense row."""
    status, bins, nodes = answer
    if bins is not None:
        bins = tuple(
            tuple(row)
            if type(row[0]) is tuple
            else tuple((c, x) for c, x in enumerate(row) if x)
            for row in (bins[j] for j in range(k, n))
        )
    return status, bins, nodes


def is_valid(answer, call):
    """Whether a feasible answer to ``call`` is an assignment: one entry per
    bin, each of ``d`` balls in positive counts of known classes, class
    totals equal to the supply, and bins ``k..n-1`` within capacity."""
    values, supply, caps, d, k, _ = call
    status, bins, _ = answer
    if status != _search.STATUS_FEASIBLE:
        return True
    if len(bins) != len(caps):
        return False
    held = [0] * len(values)
    for j, pairs in enumerate(bins):
        if not all(0 <= c < len(values) and x > 0 for c, x in pairs):
            return False
        if sum(x for _, x in pairs) != d:
            return False
        if j >= k and sum(values[c] * x for c, x in pairs) > caps[j]:
            return False
        for c, x in pairs:
            held[c] += x
    return held == list(supply)


def random_call(rng, wide):
    """One ``search_feasible`` argument tuple."""
    n = rng.randint(13, 40) if wide else rng.randint(1, 12)
    m = rng.randint(1, 30) if wide else rng.randint(1, 8)
    top = rng.choice([m, 40, 90] if wide else [m, 15, 60])
    values = sorted(rng.sample(range(top), m), reverse=True)
    d = rng.randint(1, 6)
    cuts = sorted(rng.randint(0, d * n) for _ in range(m - 1))
    supply = [b - a for a, b in zip([0] + cuts, cuts + [d * n])]
    if rng.random() < 0.3:  # empty lightest classes
        tail = rng.randint(1, m)
        supply[-tail:] = [0] * tail
        supply[rng.randrange(m - tail + 1)] += d * n - sum(supply)
    mean = sum(v * count for v, count in zip(values, supply)) // n
    spread = rng.choice([0, 1, d, 3 * d])
    caps = [
        mean + rng.randint(-spread, spread) + rng.choice([0, 0, 1])
        for _ in range(n)
    ]
    if rng.random() < 0.5:
        caps.sort(reverse=True)
    k = rng.choice([0, 0, rng.randint(0, n)])
    if wide:
        budget = rng.choice([rng.randint(1, 3000), 20_000])
    else:
        budget = rng.choice([rng.randint(1, 300), 10**6])
    return values, supply, caps, d, k, budget


def near_tight_call(rng):
    """One ``search_feasible`` argument tuple: ``n = 30..60`` distinct
    weights, ``d = n..n+3`` balls of each, and capacities ``d*v + 1`` or the
    extremal witness's."""
    n = rng.randint(30, 60)
    top = rng.choice([2 * n, 4 * n, 10**4])
    values = sorted(rng.sample(range(top), n), reverse=True)
    d = n + rng.randint(0, 3)
    if rng.random() < 0.5:
        caps, k = [d * v + 1 for v in values], 0
    else:
        caps, k = list(extremal_capacities(WeightProfile(values), d)), rng.randint(0, 1)
    budget = rng.choice([rng.randint(1, 3000), 100_000])
    return values, [d] * n, caps, d, k, budget


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", help="path of the other _search.py")
    p.add_argument("--calls", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=1)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--wide", action="store_true")
    mode.add_argument("--near-tight", action="store_true")
    args = p.parse_args(argv)
    other = load_kernel(args.other)
    rng = random.Random(args.seed)
    kernels = (_search.search_feasible, other.search_feasible)
    seconds = [0.0, 0.0]
    tally = Counter()
    mismatches = 0
    for i in range(args.calls):
        call = near_tight_call(rng) if args.near_tight else random_call(rng, args.wide)
        answers = [None, None]
        for side in (i % 2, 1 - i % 2):
            start = time.perf_counter()
            answers[side] = kernels[side](*call)
            seconds[side] += time.perf_counter() - start
        k, n = call[4], len(call[2])
        got = normalised(answers[0], k, n) if is_valid(answers[0], call) else None
        if got is None or got != normalised(answers[1], k, n):
            mismatches += 1
            if mismatches <= 5:
                print("mismatch:", call, file=sys.stderr)
        tally[("infeasible", "feasible", "budget")[answers[0][0]]] += 1
    print(
        f"{args.calls} calls, {mismatches} mismatches;",
        f"{dict(sorted(tally.items()))};",
        f"this kernel {seconds[0]:.3f} s, other {seconds[1]:.3f} s",
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
