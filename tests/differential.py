"""Differential check of this tree's hmbp against another tree's, by family.

Each family draws seeded cases and names the layer that runs them. The
kernel families pass one argument tuple to ``_search.search_feasible``:
- ``narrow``: n = 1..12 and up to 8 classes; sorted and unsorted
  capacities (as the W^min probes pass), empty lightest classes, ``k = 0``
  and random ``k``, small and large node budgets;
- ``wide``: the same at n = 13..40 and up to 30 classes;
- ``near-tight``: the wide answers the paper's witnesses ask for, distinct
  weights at n = 30..60 with capacities ``d*v + 1``, or the extremal witness
  of the same weights (``hmbp.witness``) at ``k = 0`` or 1; the seed draws
  the weights, so every seed searches other trees.

The ``solve`` family solves instances with ``hmbp.solver.solve``. Every
tenth draw is wide: distinct weights at n = 16..64 with
``d = d_threshold(w)`` and balanced capacities. Four in ten are threshold
draws at n = 2..8, alternately balanced and squeezed (a share of the head
bins' capacity moved to the middle bins). The other half sits below the
threshold (n = 2..6, ``d = 1..40``), with the total split evenly or each
capacity near its bin's diagonal load, and random ``r``, ``N`` and
``max_rounds``, so that stage restarts and stalls occur.

The ``wmin`` family asks ``hmbp.oracle.min_bin1_weight`` (W^min) of desk
instances: n = 3..10, d = 1..9, balanced capacities with slack 0, 1, 2,
n or 3n, then up to three moves of 1..3 units between bins. Every other
draw asks ``decide(inst, 1)`` of the same instance first, so W^min's first
question is read from the instance's record on half the draws and searched
on the other half. The outcome is the value, ``not-1-feasible`` (an
``OracleError``) or ``budget`` (a refusal at ``WMIN_BUDGET`` nodes).

Without ``--other`` the script prints one digest line per case: the case
and this tree's outcome (a kernel's ``(status, bins, nodes)``; a solve's
status, rounds, stall text, ``trace.serialize()`` and final counts) as one
JSON list. ``--other SRC`` imports the ``hmbp`` package in ``SRC`` (for
instance the ``src`` of the commit before a change, taken with
``git archive REV src | tar -x -C old``) in this process, runs each case on
both trees, timed, alternating which runs first, and compares the outcomes;
the summary line then ends with each side's seconds. A difference, or a
feasible kernel answer of this tree that is not a valid assignment, is a
mismatch: the first ones go to stderr, and the exit status is non-zero.
``--reference`` takes no other tree: it compares this tree's statuses on the
narrow family, or its W^min outcomes on the wmin family, with those of
``tests/reference.py``, which shares no rule with the kernel, skipping the
cases this tree refuses at its budget and those on which the reference
tries more than ``REFERENCE_FILLS`` count vectors.

The summary line tallies this tree's outcomes: kernel statuses, or solve
statuses, stall kinds (the operation that stalled) and stage restarts, or
W^min outcomes and how many draws asked ``decide`` first.
``restart`` counts every stage that ``solve`` undid and began again after a
stall, and ``restart:stage2+`` those of stage 2 or later, whose moves are
undone at a bin offset. ``--min KEY=N`` makes a run whose tally holds fewer
than ``N`` of ``KEY`` exit non-zero, so a run can show that a path ran.
Run it as
``PYTHONPATH=src python tests/differential.py --family narrow --count 30000 --other old/src``.
"""

import argparse
import importlib.util
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import hmbp._search
import hmbp.solver
import reference
from hmbp.core import WeightProfile, b_constant, d_threshold, make_instance
from hmbp.criteria import tight_profile
from hmbp.witness import extremal_capacities

# The count vectors the reference may try on one call before it is skipped.
REFERENCE_FILLS = 100_000
STATUSES = ("infeasible", "feasible", "budget")  # by kernel status code
# The node budget of each oracle call of the wmin family.
WMIN_BUDGET = 200_000


def load_tree(src):
    """The ``hmbp`` package in the directory ``src``, imported afresh as
    ``hmbp_other``, with its kernel ``_search`` imported by name: a package
    that loads its engines lazily has not imported the kernel yet."""
    for name in [m for m in sys.modules if m.split(".")[0] == "hmbp_other"]:
        del sys.modules[name]
    package = Path(src, "hmbp")
    spec = importlib.util.spec_from_file_location(
        "hmbp_other", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    tree = sys.modules["hmbp_other"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tree)
    importlib.import_module("hmbp_other._search")
    return tree


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


def balanced(w, d, s):
    """Total ``d*sum(w) + b(w) + s`` split evenly, larger parts first."""
    n = len(w)
    q, r = divmod(d * sum(w) + b_constant(WeightProfile(w)) + s, n)
    return [q + 1 if j < r else q for j in range(n)]


def squeezed(w, d, share):
    """Tight capacities with ``share`` (a Fraction) of the drop from the
    head bin to the middle bin moved from the two head bins to the two
    middle ones, as in the benchmark's squeezed descent instances."""
    caps = list(tight_profile(WeightProfile(w), d))
    h = len(w) // 2
    move = int((caps[0] - caps[h]) * share)
    caps[0] -= move
    caps[1] -= move // 2
    caps[h] += move
    caps[min(h + 1, len(w) - 1)] += move // 2
    return sorted(caps, reverse=True)


def draw(rng, index):
    """One ``(family, d, w, C, cfg)`` solve; the family follows ``index``."""
    slot = index % 10
    if slot == 0:
        n = rng.randint(16, 64)
        w = sorted(rng.sample(range(rng.randint(n, 3 * n)), n), reverse=True)
        d = d_threshold(WeightProfile(w))
        return "wide", d, w, balanced(w, d, rng.randint(0, 6 * n)), {}
    if slot <= 4:
        n, top = rng.randint(2, 8), rng.randint(1, 8)
        w = [top] + sorted((rng.randint(0, top) for _ in range(n - 1)), reverse=True)
        d = d_threshold(WeightProfile(w))
        if slot % 2:
            return "balanced", d, w, balanced(w, d, rng.randint(0, 6 * n)), {}
        share = Fraction(rng.randint(50, 500), 1000)
        return "squeezed", d, w, squeezed(w, d, share), {}
    n, top = rng.randint(2, 6), rng.randint(1, 6)
    w = [top] + sorted((rng.randint(0, top) for _ in range(n - 1)), reverse=True)
    d = rng.randint(1, 40)
    if slot % 2:  # the total split evenly: long relief runs, shrinking stalls
        q, r = divmod(d * sum(w) + rng.randint(0, 3 * n), n)
        caps = [q + 1 if j < r else q for j in range(n)]
    else:  # each bin near its own diagonal load: constant-suffix stalls
        caps = sorted((d * v + rng.randint(-2, 2 * n) for v in w), reverse=True)
    cfg = {
        "r": rng.choice([None, 1, 1, 2, rng.randint(1, 6)]),
        "N": rng.choice([None, None, 1, rng.randint(1, 12)]),
        "max_rounds": rng.choice([None, None, rng.randint(1, 40)]),
    }
    rng.random()  # a retired setting's draw: each seed keeps its instances
    return "below", d, w, caps, cfg


class RestartWatch:
    """Counts stage restarts while installed in place of
    ``hmbp.solver.descend``. ``solve`` descends once on each stage it does
    not skip, from bin ``n`` down, and once more after each restart, so
    within one solve a ``descend`` on as many bins as the call before it is
    a restart, and one on fewer than all ``n`` bins belongs to stage 2 or
    later."""

    def __init__(self) -> None:
        self.tally = Counter()
        self.sizes = []  # the bin count of each descend call of this solve
        self.original = None

    def __enter__(self) -> "RestartWatch":
        self.original = original = hmbp.solver.descend

        def watched(assignment, capacities, cfg, log):
            self.sizes.append(assignment.n)
            return original(assignment, capacities, cfg, log)

        hmbp.solver.descend = watched
        return self

    def __exit__(self, *exc) -> None:
        hmbp.solver.descend = self.original

    def solved(self, n: int) -> None:
        """Tally the restarts of the solve just made on ``n`` bins."""
        for before, size in zip(self.sizes, self.sizes[1:]):
            if size == before:
                self.tally["restart"] += 1
                self.tally["restart:stage2+"] += size < n
        self.sizes.clear()


def is_valid(answer, call):
    """Whether a feasible answer to ``call`` is an assignment: one entry per
    bin, each of ``d`` balls in positive counts of known classes, class
    totals equal to the supply, and bins ``k..n-1`` within capacity."""
    values, supply, caps, d, k, _ = call
    status, bins, _ = answer
    if STATUSES[status] != "feasible":
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


def search(tree, call, watch):
    """``tree``'s kernel answer to ``call``; no kernel call descends, so the
    ``watch`` sees nothing."""
    return tree._search.search_feasible(*call)


def search_keys(call, answer):
    """The tally key of this tree's answer, or ``None`` when it is a
    feasible answer but not a valid assignment."""
    return [STATUSES[answer[0]]] if is_valid(answer, call) else None


def reference_keys(call, answer):
    """The tally key of a narrow call on which the reference decider
    confirms this tree's status, or ``None`` when the two disagree; the
    key is ``budget`` when the kernel refuses the call at its budget and
    ``reference-budget`` when the reference tries too many fills."""
    keys = search_keys(call, answer)
    if keys in (None, ["budget"]):
        return keys
    values, supply, caps, d, k, _ = call
    layers = reference.leave(values, supply, caps, d, k, REFERENCE_FILLS)
    if layers is None:
        return ["reference-budget"]
    feasible = not layers or bool(layers[-1])
    return keys if keys == [STATUSES[feasible]] else None


def solve_outcome(tree, case, watch):
    """What ``tree``'s ``solve`` makes of a draw; the ``watch`` tallies the
    restarts of this tree's solves."""
    _, d, w, caps, cfg = case
    try:
        res = tree.solve(tree.make_instance(d, w, caps), tree.SolverConfig(**cfg))
        counts = None if res.assignment is None else res.assignment.counts
        return [res.status, res.rounds, res.stall, res.trace.serialize(), counts]
    except Exception as exc:  # compared like any other outcome
        return [f"error: {type(exc).__name__}: {exc}"]
    finally:
        watch.solved(len(w))


def solve_keys(case, outcome):
    """The status and stall kind of a solve outcome."""
    if len(outcome) == 1:
        return ["error"]
    status, _, stall = outcome[:3]
    return [status] + ([] if stall is None else ["stall:" + stall.split(":", 1)[0]])


def wmin_draw(rng, index):
    """One W^min case ``(d, w, caps, ask_first)``; ``ask_first`` on every
    other draw."""
    n, top = rng.randint(3, 10), rng.randint(1, 9)
    w = [top] + sorted((rng.randint(0, top) for _ in range(n - 1)), reverse=True)
    d = rng.randint(1, 9)
    caps = balanced(w, d, rng.choice([0, 1, 2, n, 3 * n]))
    for _ in range(rng.randint(0, 3)):
        src, dst = rng.sample(range(n), 2)
        units = rng.randint(1, 3)
        caps[src] -= units
        caps[dst] += units
    return d, w, sorted(caps, reverse=True), index % 2 == 0


def wmin_outcome(tree, case, watch):
    """``tree``'s W^min of a draw, after ``decide(inst, 1)`` on the same
    instance when the draw asks it first; the ``watch`` sees nothing."""
    d, w, caps, ask_first = case
    inst = tree.make_instance(d, w, caps)
    if ask_first:
        try:
            tree.decide(inst, 1, WMIN_BUDGET)
        except tree.BudgetExceeded:
            pass
    try:
        return [tree.min_bin1_weight(inst, node_budget=WMIN_BUDGET)]
    except tree.OracleError:
        return ["not-1-feasible"]
    except tree.BudgetExceeded:
        return ["budget"]


def wmin_keys(case, outcome):
    """The kind of a W^min outcome, and ``asked-first`` when the draw asked
    ``decide`` first."""
    kind = outcome[0] if isinstance(outcome[0], str) else "value"
    return [kind] + ["asked-first"] * case[3]


def wmin_reference_keys(case, outcome):
    """The keys of a W^min outcome that ``reference.min_bin1`` confirms, or
    ``None`` when the two disagree; ``reference-budget`` in place of the
    outcome's kind when the reference tries too many fills."""
    keys = wmin_keys(case, outcome)
    if keys[0] == "budget":
        return keys
    d, w, caps, _ = case
    try:
        expected = reference.min_bin1(make_instance(d, w, caps), REFERENCE_FILLS)
    except reference.TooManyFills:
        return ["reference-budget"] + keys[1:]
    want = "not-1-feasible" if expected is None else expected
    return keys if outcome == [want] else None


class Family(NamedTuple):
    draw: Callable  # (rng, index) -> one case
    run: Callable  # (tree, case, watch) -> the tree's outcome
    keys: Callable  # (case, outcome) -> tally keys; None for a malformed outcome
    # (case, outcome) -> tally keys checked against tests/reference.py; None
    # when the family has no reference check.
    reference: Callable | None = None


FAMILIES = {
    "narrow": Family(
        lambda rng, i: random_call(rng, False), search, search_keys, reference_keys
    ),
    "wide": Family(lambda rng, i: random_call(rng, True), search, search_keys),
    "near-tight": Family(lambda rng, i: near_tight_call(rng), search, search_keys),
    "solve": Family(draw, solve_outcome, solve_keys),
    "wmin": Family(wmin_draw, wmin_outcome, wmin_keys, wmin_reference_keys),
}


def least(text):
    """``KEY=N`` as ``(KEY, N)``."""
    key, _, count = text.rpartition("=")
    return key, int(count)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--family", choices=FAMILIES, default="narrow")
    p.add_argument("--count", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--other", metavar="SRC", help="directory holding the other hmbp")
    p.add_argument("--reference", action="store_true")
    p.add_argument("--min", type=least, action="append", default=[], metavar="KEY=N")
    args = p.parse_args(argv)
    family = FAMILIES[args.family]
    if args.reference and (args.other or family.reference is None):
        p.error("--reference runs the narrow or wmin family against no other tree")
    keys = family.reference if args.reference else family.keys
    trees = [hmbp] + ([load_tree(args.other)] if args.other else [])
    rng = random.Random(args.seed)
    seconds = [0.0] * len(trees)
    tally = Counter()
    mismatches = 0
    with RestartWatch() as watch:
        for i in range(args.count):
            case = family.draw(rng, i)
            outcomes = [None] * len(trees)
            for side in (i % 2, 1 - i % 2) if args.other else (0,):
                start = time.perf_counter()
                outcomes[side] = family.run(trees[side], case, watch)
                seconds[side] += time.perf_counter() - start
            digests = [json.dumps(outcome) for outcome in outcomes]
            found = keys(case, outcomes[0])
            if found is None or len(set(digests)) > 1:
                mismatches += 1
                if mismatches <= 5:
                    print(f"mismatch at case {i}: {json.dumps(case)}", file=sys.stderr)
            tally.update(found or ())
            if not (args.other or args.reference):
                print(json.dumps([*case, *outcomes[0]]))
    tally = dict(sorted((tally + watch.tally).items()))
    short = [(k, n) for k, n in args.min if tally.get(k, 0) < n]
    for key, n in short:
        print(f"{tally.get(key, 0)} {key} below the required {n}", file=sys.stderr)
    line = f"{args.count} cases, {mismatches} mismatches; {tally}"
    if args.other:
        line += f"; this tree {seconds[0]:.3f} s, other {seconds[1]:.3f} s"
    print(line)
    return 1 if mismatches or short else 0


if __name__ == "__main__":
    sys.exit(main())
