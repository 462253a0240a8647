"""Differential check of the constructive solver against another tree's.

Solves seeded random instances with ``hmbp.solver.solve`` and prints one
digest line per solve: the draw (family, ``d``, ``w``, ``C``, the solver
settings), then the status, rounds, stall text, ``trace.serialize()`` and
the final counts, as one JSON list. A last line tallies the statuses, the
stall kinds (the operation that stalled) and the stage restarts: ``restart``
counts every stage that ``solve`` undid and began again after a stall, and
``restart:stage2+`` those of stage 2 or later, whose moves are undone at a
bin offset. ``--min-restarts`` and ``--min-stage2-restarts`` make a run
that saw fewer of them exit non-zero, so a run can show that path ran.

With ``--other SRC`` the same draws are also solved under the ``hmbp``
package in ``SRC`` (for instance the ``src`` of the commit before a solver
change, taken with ``git archive REV src | tar -x -C old``), in a
subprocess; the digests are compared line by line, the first mismatches
go to stderr and the exit status is non-zero on any difference.

Every tenth draw is wide: distinct weights at n = 16..64 with
``d = d_threshold(w)`` and balanced capacities. Four in ten are threshold
draws at n = 2..8, alternately balanced and squeezed (a share of the head
bins' capacity moved to the middle bins). The other half sits below the
threshold (n = 2..6, ``d = 1..40``), with the total split evenly or each
capacity near its bin's diagonal load, and random ``r``, ``N`` and
``max_rounds``, so that stage restarts and stalls occur.
Run it as
``PYTHONPATH=src python tests/solve_differential.py --solves 5000 --other old/src``.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import hmbp.solver
from hmbp.core import WeightProfile, b_constant, d_threshold, make_instance
from hmbp.criteria import tight_profile
from hmbp.solver import SolverConfig, solve


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


def digest(rng, index, watch: RestartWatch) -> list:
    """The draw followed by what this tree's ``solve`` made of it."""
    family, d, w, caps, cfg = draw(rng, index)
    try:
        res = solve(make_instance(d, w, caps), SolverConfig(**cfg))
        counts = None if res.assignment is None else res.assignment.counts
        outcome = [res.status, res.rounds, res.stall, res.trace.serialize(), counts]
        return [family, d, w, caps, cfg, *outcome]
    except Exception as exc:  # compared like any other outcome
        return [family, d, w, caps, cfg, f"error: {type(exc).__name__}: {exc}"]
    finally:
        watch.solved(len(w))


def tally_of(rows) -> Counter:
    """Statuses and stall kinds over the digests."""
    tally = Counter()
    for row in rows:
        if len(row) == 6:
            tally["error"] += 1
            continue
        status, stall = row[5], row[7]
        tally[status] += 1
        if stall is not None:
            tally["stall:" + stall.split(":", 1)[0]] += 1
    return tally


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--solves", type=int, default=5000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--other", metavar="SRC", help="directory holding the other hmbp")
    p.add_argument("--min-restarts", type=int, default=0, metavar="K")
    p.add_argument("--min-stage2-restarts", type=int, default=0, metavar="K")
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    with RestartWatch() as watch:
        lines = [json.dumps(digest(rng, i, watch)) for i in range(args.solves)]
    tally = tally_of(map(json.loads, lines)) + watch.tally
    tally = dict(sorted(tally.items()))
    short = [
        f"{tally.get(key, 0)} {key} below the required {least}"
        for key, least in (
            ("restart", args.min_restarts),
            ("restart:stage2+", args.min_stage2_restarts),
        )
        if tally.get(key, 0) < least
    ]
    for line in short:
        print(line, file=sys.stderr)
    if args.other is None:
        print("\n".join(lines))
        print(f"{args.solves} solves; {tally}")
        return 1 if short else 0
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.other))
    argv = [sys.executable, __file__, "--solves", str(args.solves)]
    run = subprocess.run(
        argv + ["--seed", str(args.seed)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    theirs = run.stdout.splitlines()[:-1]
    mismatches = [i for i, (a, b) in enumerate(zip(lines, theirs)) if a != b]
    mismatches += range(len(theirs), len(lines))
    for i in mismatches[:5]:
        print(f"mismatch at solve {i}: {lines[i]}", file=sys.stderr)
    print(f"{args.solves} solves, {len(mismatches)} mismatches; {tally}")
    return 1 if mismatches or short else 0


if __name__ == "__main__":
    sys.exit(main())
