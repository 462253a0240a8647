"""Constructive feasibility engine.

Builds a feasible assignment by descending induction over suffixes of the
instance: after stage ``i`` the bins ``i..n`` hold exactly the suffix supply
and satisfy their capacities. One assignment serves the whole induction:
stage ``i`` grows it in place by bin ``i`` with its own ``d`` balls in front
(:meth:`~hmbp.core.Assignment.prepend_bin`), and runs a descent loop on that
truncated problem which strictly lowers the load of the stage's head bin
until it fits, using three kinds of ball exchanges:

* a direct relief swap through any bin with slack at least the top weight,
  batched so that one move makes every consecutive swap through the same bin
  and value (the move count does not grow with the multiplicity),
* a weight-preserving three-way exchange that raises the number of top-weight
  balls in the head bin (so the matching step below has material to work with),
* a gap-shrinking pass routed through a permutation that pairs every weight
  position with a bin rich in that weight (found via bipartite matching),
  which either frees the head bin directly or drives every other bin's slack
  below its weight-profile gap.

The steps read the assignment's weight classes directly: class ``c`` holds
the positions ``first[c] .. first[c+1] - 1``, where ``first`` is one O(m)
table of cumulative multiplicities, and the gap of a position is the step
from its class value up to the next larger one (the drop from the top to the
second-largest value inside the top block).

The finished assignment's row and column sums are validated from scratch
once, with every capacity, before it is returned.

Stalls are first-class outcomes: below the multiplicity threshold the theory
gives no termination guarantee. A stage that stalls in the matching or the
shrinking step is undone and restarted with the richness threshold ``r`` and
the top-count target ``N`` halved; the stall is reported, with exactly where
the engine got stuck, once ``r = N = 1`` stalls too.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from . import oracle as _oracle
from .core import (
    Assignment,
    CapacityProfile,
    Instance,
    _Frozen,
    _Record,
    is_k_feasible,
)

KIND_RELIEF = "relief-swap"
KIND_BOOST = "boost-3way"
KIND_CHAIN = "chain-swap"
KIND_CHAIN_EXIT = "chain-exit"
KIND_BLOCK = "block-swap"
KIND_TOP_EXIT = "top-exit"
KIND_NORMALIZE = "normalize"


class SolverUsageError(ValueError):
    """Preconditions of a solver operation were violated by the caller."""


class StallError(RuntimeError):
    """The construction cannot make progress.

    Triggered only when the instance violates the hypotheses that guarantee
    termination (multiplicity below the threshold, or total slack below the
    correction constant). Carries the operation, the step that failed and a
    human-readable detail; for matching stalls also a deficient index set.
    ``rounds`` is the number of rounds the stalled descent made before it
    stopped (0 outside a descent).
    """

    def __init__(self, op, detail, step=None, deficient=None):
        super().__init__(f"{op}: {detail}")
        self.op = op
        self.detail = detail
        self.step = step
        self.deficient = deficient
        self.rounds = 0


class Transfer(NamedTuple):
    """Move ``count`` balls of ``value`` from bin ``src`` to bin ``dst`` (1-based)."""

    value: int
    count: int
    src: int
    dst: int


class Move(NamedTuple):
    """One trace entry: a balanced group of transfers plus diagnostics.

    Every step builds its moves through one private helper, which applies
    the transfers, reads ``bin1_weight`` (the head-bin load) from the
    assignment after them and appends the move to the step's log.
    ``i``/``j``/``l``/``t`` are step parameters local to the working
    (possibly truncated) problem; ``stage`` is the suffix start position in
    the full instance. A relief move may carry ``count > 1``: it is that many
    unit swaps through the same bin, and ``bin1_weight`` is the load after
    the last of them.
    """

    kind: str
    transfers: tuple[Transfer, ...]
    bin1_weight: int
    stage: int = 1
    i: int | None = None
    j: int | None = None
    l: int | None = None
    t: int | None = None

    def shifted(self, offset: int, stage: int) -> "Move":
        moved = tuple(
            Transfer(value, q, src + offset, dst + offset)
            for value, q, src, dst in self.transfers
        )
        return Move(
            self.kind, moved, self.bin1_weight, stage, self.i, self.j, self.l, self.t
        )

    def serialize(self) -> str:
        parts = [self.kind, f"stage={self.stage}"]
        for name in ("i", "j", "l", "t"):
            val = getattr(self, name)
            if val is not None:
                parts.append(f"{name}={val}")
        moved = ",".join(
            f"{value}x{q}:{src}>{dst}" for value, q, src, dst in self.transfers
        )
        parts.append(f"moves={moved}")
        parts.append(f"w1={self.bin1_weight}")
        return " ".join(parts)


def _record(
    assignment: Assignment, log: list, kind: str, transfers: tuple, **diag
) -> Move:
    """Apply the 1-based ``transfers`` to ``assignment``, append them to
    ``log`` as one move of ``kind`` and return it; the move's
    ``bin1_weight`` is the head-bin load after the transfers."""
    assignment.apply((value, q, src - 1, dst - 1) for value, q, src, dst in transfers)
    move = Move(kind, transfers, assignment.bin_weight(0), **diag)
    log.append(move)
    return move


class DescentTrace(_Record):
    """Ordered move log; replaying it from the initial assignment reproduces
    the final one exactly.

    A batched relief move serializes like any other move, as ``value x count``
    transfers, so the text format does not change with batching.
    """

    _fields = ("moves",)

    def __init__(self, moves: list[Move] | None = None) -> None:
        self.moves = [] if moves is None else moves

    def serialize(self) -> str:
        return "\n".join(mv.serialize() for mv in self.moves) + (
            "\n" if self.moves else ""
        )

    def replay(self, initial: Assignment) -> Assignment:
        out = initial.copy()
        for mv in self.moves:
            out.apply(
                (value, q, src - 1, dst - 1) for value, q, src, dst in mv.transfers
            )
        return out

    def __len__(self) -> int:
        return len(self.moves)


class MatchingPermutation(_Frozen):
    """Permutation of 1..n fixing 1; position ``i`` names the bin paired with
    weight index ``i``."""

    _fields = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        if sorted(order) != list(range(1, len(order) + 1)) or order[0] != 1:
            raise SolverUsageError(f"not a permutation fixing 1: {order}")
        self.__dict__["order"] = order

    def bin_for(self, i: int) -> int:
        return self.order[i - 1]


class SolverConfig(NamedTuple):
    """Tunables for the descent engine.

    ``r`` is the matching richness threshold and ``N`` the target top-ball
    count in the head bin; both default to values that make the engine
    provably terminating once the multiplicity clears its threshold
    (``r = 2*n*w1``, ``N = (n-1)*n*r``, per working problem), and
    ``max_rounds`` defaults to ``d*w1 + n + 2``. :meth:`resolved` fills the
    unset values in for one working problem; each stage attempt resolves
    once and hands the steps plain numbers. Below the threshold no bin may
    be that rich: a stage that stalls in the matching or the shrinking step
    restarts from its start state with the resolved ``r`` and ``N`` halved,
    rounded up, down to 1. ``fallback_to_oracle`` hands a stalled instance
    to the exact search under its default node budget.
    """

    r: int | None = None
    N: int | None = None
    max_rounds: int | None = None
    fallback_to_oracle: bool = False

    def resolved(self, inst: Instance) -> "SolverConfig":
        """This config with every unset tunable at its default for ``inst``."""
        n, top = inst.n, inst.weights[0]
        r = self.r if self.r is not None else 2 * n * top
        N = self.N if self.N is not None else (n - 1) * n * r
        max_rounds = self.max_rounds
        if max_rounds is None:
            max_rounds = inst.d * top + n + 2
        return SolverConfig(r, N, max_rounds, self.fallback_to_oracle)


def _first_positions(assignment: Assignment) -> list[int]:
    """``first[c]``, the 1-based position where weight class ``c`` starts,
    for every class, followed by ``first[m] = n + 1``."""
    d = assignment.d
    return list(accumulate((s // d for s in assignment.class_supply), initial=1))


def relief_swap(
    assignment: Assignment,
    capacities: CapacityProfile,
    log: list,
    *,
    limit: int = 1,
) -> Move | None:
    """Swap top-weight balls out of bin 1 through a bin with slack >= w1.

    Picks the lowest-index bin ``b`` whose gap is at least the top weight and
    which holds some lighter ball, and trades balls of the lightest such
    value ``v`` for top balls from bin 1. Each unit swap strictly lowers the
    bin-1 load by ``w1 - v`` and preserves 1-feasibility.

    One call makes ``q`` unit swaps at once, recorded as one move: ``q`` is
    the smallest of ``limit``, the top balls in bin 1, the class-``v`` balls
    in bin ``b``, the swaps bin ``b``'s gap allows while it stays at least
    ``w1``, and the swaps needed until bin 1 fits. Only bins 1 and ``b``
    change, so ``q`` calls with ``limit=1`` would make the same ``q`` swaps.
    Returns None when no swap applies.
    """
    if limit < 1:
        raise SolverUsageError(f"relief limit must be at least 1, got {limit}")
    top = assignment.class_values[0]
    excess = assignment.bin_weight(0) - capacities[0]
    if excess <= 0:
        return None
    tops = assignment.counts[0][0]
    if tops == 0:
        return None
    for b in range(2, assignment.n + 1):
        gap = capacities[b - 1] - assignment.bin_weight(b - 1)
        if gap < top:
            continue
        for c in range(assignment.m - 1, 0, -1):  # lightest value first
            held = assignment.counts[c][b - 1]
            if held > 0:
                value = assignment.class_values[c]
                step = top - value
                q = min(
                    limit, tops, held, (gap - top) // step + 1, -(-excess // step)
                )
                return _record(
                    assignment,
                    log,
                    KIND_RELIEF,
                    (Transfer(top, q, 1, b), Transfer(value, q, b, 1)),
                    j=b,
                )
    return None


def boost_top_count(assignment: Assignment, N: int, log: list) -> None:
    """Raise the top-ball count of bin 1 to the target ``N``.

    Repeats a three-way exchange with some bin rich in top balls that keeps
    both bin loads and cardinalities unchanged while strictly increasing the
    number of top balls in bin 1. Stalls when the exchange material runs out
    before the target, which can only happen below the multiplicity bound.
    """
    first = _first_positions(assignment)
    n = assignment.n
    top = assignment.class_values[0]
    guard = 0
    while assignment.counts[0][0] < N:
        guard += 1
        if guard > assignment.d + 1:
            raise StallError("boost", "exchange loop exceeded its iteration bound")
        k_class = None
        for c in range(1, assignment.m):
            if assignment.counts[c][0] >= top:
                k_class = c
                break
        if k_class is None:
            raise StallError(
                "boost",
                f"bin 1 holds no non-top value with at least {top} balls; "
                f"top count stuck at {assignment.counts[0][0]} < {N}",
            )
        rbin = max(
            range(2, n + 1), key=lambda b: (assignment.counts[0][b - 1], -b)
        )
        if assignment.counts[0][rbin - 1] == 0:
            raise StallError("boost", "no bin beyond 1 holds any top ball")
        wk = assignment.class_values[k_class]
        t_class = None
        for c in range(k_class + 1, assignment.m):
            wt = assignment.class_values[c]
            if (
                assignment.counts[c][rbin - 1] >= top - wk
                and assignment.counts[0][rbin - 1] >= wk - wt
                and assignment.counts[k_class][0] >= top - wt
            ):
                t_class = c
                break
        if t_class is None:
            raise StallError(
                "boost",
                f"no value below {wk} with enough balls in bin {rbin} to "
                f"exchange against",
            )
        wt = assignment.class_values[t_class]
        before = (assignment.bin_weight(0), assignment.bin_weight(rbin - 1))
        move = _record(
            assignment,
            log,
            KIND_BOOST,
            (
                Transfer(wk, top - wt, 1, rbin),
                Transfer(wt, top - wk, rbin, 1),
                Transfer(top, wk - wt, rbin, 1),
            ),
            i=first[k_class],
            j=rbin,
            t=first[t_class],
        )
        if (move.bin1_weight, assignment.bin_weight(rbin - 1)) != before:
            raise AssertionError("three-way exchange changed a bin load")


def find_permutation(assignment: Assignment, r: int) -> MatchingPermutation:
    """Pair every weight index 2..n with a distinct bin holding at least
    ``r`` balls of that weight, via augmenting-path bipartite matching.

    Any perfect matching is acceptable. When none exists, the stall error
    names a deficient index set whose joint neighborhood is too small.
    """
    first = _first_positions(assignment)
    n = assignment.n
    adj: dict[int, list[int]] = {}
    for c, row in enumerate(assignment.counts):
        rich = [j for j in range(2, n + 1) if row[j - 1] >= r]
        for i in range(max(first[c], 2), first[c + 1]):
            adj[i] = rich

    match_right: dict[int, int] = {}

    def try_assign(i: int, visited: set[int]) -> bool:
        for j in adj[i]:
            if j in visited:
                continue
            visited.add(j)
            if j not in match_right or try_assign(match_right[j], visited):
                match_right[j] = i
                return True
        return False

    for i in range(2, n + 1):
        visited: set[int] = set()
        if not try_assign(i, visited):
            deficient = sorted({i} | {match_right[j] for j in visited})
            raise StallError(
                "matching",
                f"weight indices {deficient} reach only bins {sorted(visited)} "
                f"with {r} or more balls",
                deficient=tuple(deficient),
            )
    order = [0] * n
    order[0] = 1
    for j, i in match_right.items():
        order[i - 1] = j
    return MatchingPermutation(tuple(order))


def shrink_gaps(
    assignment: Assignment,
    capacities: CapacityProfile,
    perm: MatchingPermutation,
    log: list,
) -> None:
    """Drive the slack of every bin beyond 1 below its weight-profile gap.

    Works in two sweeps over the assignment's weight classes, each position
    ``i`` routed to bin ``perm.bin_for(i)``. The upward sweep runs over the
    classes below the second-largest value, lightest first and each class's
    positions last to first: while position ``i`` of class ``c`` has slack at
    least ``values[c-1] - values[c]``, one of its balls trades for a
    predecessor-value ball of position ``j = first[c] - 1``, pushing slack
    toward heavier positions; if that ever opens a gap of at least the top
    weight, a top ball leaves bin 1 and the pass exits early. The downward
    sweep handles the top block, positions ``2 .. first[2] - 1`` with gap
    ``top - second``: a paired bin lacking a second-largest ball receives a
    block of them from position ``j = max(i + 1, first[1])`` against top
    balls and one ball of its heaviest class below ``second`` (position
    ``l``, the block sized so its slack stays non-negative); otherwise a
    single top-for-second swap exits the pass. Either the pass exits early
    with a strictly lower bin-1 load, or it completes with every paired slack
    below its gap, which forces feasibility whenever the total-slack
    condition holds.

    All swaps preserve 1-feasibility. Each move's transfers are checked in
    order before it is applied, and a missing ball raises a stall naming the
    bin, value and count; that cannot happen once every paired bin holds
    ``r >= n*w1`` balls of its weight. An assignment with a single weight
    class has no gaps and is refused.
    """
    if assignment.m < 2:
        raise SolverUsageError("shrink_gaps needs at least two weight classes")
    values, counts = assignment.class_values, assignment.counts
    first = _first_positions(assignment)
    top, second = values[0], values[1]

    def slack(b: int) -> int:
        return capacities[b - 1] - assignment.bin_weight(b - 1)

    def step(kind: str, transfers: tuple, **diag) -> None:
        for value, q, src, _ in transfers:
            held = assignment.count_of(value, src - 1)
            if held < q:
                raise StallError(
                    "shrink_gaps",
                    f"bin {src} holds {held} balls of value {value}, step needs {q}",
                    step=kind,
                )
        _record(assignment, log, kind, transfers, **diag)

    # Upward sweep over the classes below the second-largest value.
    for c in range(assignment.m - 1, 1, -1):
        v, pred = values[c], values[c - 1]
        j = first[c] - 1
        bj = perm.bin_for(j)
        for i in range(first[c + 1] - 1, first[c] - 1, -1):
            bi = perm.bin_for(i)
            while slack(bi) >= pred - v:
                transfers = (Transfer(v, 1, bi, bj), Transfer(pred, 1, bj, bi))
                step(KIND_CHAIN, transfers, i=i, j=j)
                if slack(bj) >= top:
                    transfers = (Transfer(top, 1, 1, bj), Transfer(v, 1, bj, 1))
                    step(KIND_CHAIN_EXIT, transfers, i=i, j=j)
                    return

    # Downward sweep over the top block.
    for i in range(2, first[2]):
        bi = perm.bin_for(i)
        while slack(bi) >= top - second:
            if counts[1][bi - 1] > 0:
                transfers = (Transfer(top, 1, 1, bi), Transfer(second, 1, bi, 1))
                step(KIND_TOP_EXIT, transfers, i=i)
                return
            j = max(i + 1, first[1])
            if j >= first[2]:
                raise StallError(
                    "shrink_gaps",
                    f"no index beyond {i} carries the second-largest weight",
                    step=KIND_BLOCK,
                )
            lighter = [c for c in range(2, assignment.m) if counts[c][bi - 1]]
            if not lighter:
                raise StallError(
                    "shrink_gaps",
                    f"bin {bi} holds no ball lighter than {second}",
                    step=KIND_BLOCK,
                )
            wl = values[lighter[0]]
            t = (second - wl) // (top - second)
            bj = perm.bin_for(j)
            transfers = (
                Transfer(second, t + 1, bj, bi),
                Transfer(top, t, bi, bj),
                Transfer(wl, 1, bi, bj),
            )
            step(KIND_BLOCK, transfers, i=i, j=j, l=first[lighter[0]], t=t)


def normalize_suffix(inst: Instance, i: int, prev: Assignment, log: list) -> None:
    """Make bins ``i..n`` hold exactly the suffix supply, in place.

    ``prev`` must be i-feasible (bins beyond ``i`` within capacity). Balls of
    values belonging to positions before ``i`` are traded out of the suffix
    against suffix-supply balls stuck in the prefix; a traded-out ball always
    outweighs its replacement, so no suffix bin's load ever increases and the
    truncated problem ends up 1-feasible.
    """
    if not 1 <= i <= inst.n:
        raise SolverUsageError(f"stage index {i} out of range 1..{inst.n}")
    if not is_k_feasible(prev, inst.capacities, i):
        raise SolverUsageError(f"previous assignment is not {i}-feasible")
    m = prev.m
    n = prev.n
    index = {v: c for c, v in enumerate(prev.class_values)}
    small_quota = [0] * m
    for pos in range(i, n + 1):
        small_quota[index[inst.weights[pos - 1]]] += inst.d
    excess = [
        sum(prev.counts[c][j] for j in range(i - 1, n)) - small_quota[c]
        for c in range(m)
    ]
    while True:
        c_plus = next((c for c in range(m) if excess[c] > 0), None)
        if c_plus is None:
            break
        c_minus = next(c for c in range(m - 1, -1, -1) if excess[c] < 0)
        src = next(j for j in range(i - 1, n) if prev.counts[c_plus][j] > 0)
        dst = next(j for j in range(i - 1) if prev.counts[c_minus][j] > 0)
        q = min(
            excess[c_plus],
            -excess[c_minus],
            prev.counts[c_plus][src],
            prev.counts[c_minus][dst],
        )
        _record(
            prev,
            log,
            KIND_NORMALIZE,
            (
                Transfer(prev.class_values[c_plus], q, src + 1, dst + 1),
                Transfer(prev.class_values[c_minus], q, dst + 1, src + 1),
            ),
            stage=i,
        )
        excess[c_plus] -= q
        excess[c_minus] += q


def descend(
    inst: Instance,
    assignment: Assignment,
    cfg: SolverConfig,
    log: list,
) -> int:
    """Lower the load of bin 1 until it fits; rounds count unit improvements.

    ``assignment`` must be 1-feasible for ``inst`` and hold exactly its
    supply; its moves are appended to ``log``. ``cfg`` is resolved for
    ``inst`` once, and the steps get its ``r`` and ``N`` as plain numbers.
    Returns the number of rounds: a batched relief move of ``q`` unit swaps
    counts as ``q`` rounds, any other round as one, and ``max_rounds`` caps
    that count. Raises :class:`StallError` when no exchange applies,
    which the theory rules out once the multiplicity clears its threshold and
    the total-slack condition holds; the error's ``rounds`` holds the rounds
    made before the stall.
    """
    cfg = cfg.resolved(inst)
    C = inst.capacities
    top = inst.weights[0]
    max_rounds = cfg.max_rounds
    rounds = 0
    try:
        while assignment.bin_weight(0) > C[0]:
            if rounds >= max_rounds:
                raise StallError("descend", f"no convergence after {rounds} rounds")
            move = relief_swap(assignment, C, log, limit=max_rounds - rounds)
            if move is not None:
                rounds += move.transfers[0].count
                continue
            rounds += 1
            if assignment.m == 1:
                raise StallError(
                    "descend",
                    f"all weights equal {top}: every bin needs capacity "
                    f"{inst.d * top}, bin 1 has {C[0]}",
                )
            try:
                boost_top_count(assignment, cfg.N, log)
            except StallError:
                # The exchange ran out of material before the target count. The
                # shrinking pass only needs a top ball in bin 1 for its exit
                # swaps, so push on when one is there; its own stall (or lack of
                # progress) is the decisive signal.
                if assignment.counts[0][0] == 0:
                    raise
            if relief_swap(assignment, C, log) is not None:
                continue
            perm = find_permutation(assignment, cfg.r)
            before = assignment.bin_weight(0)
            shrink_gaps(assignment, C, perm, log)
            if assignment.bin_weight(0) >= before and assignment.bin_weight(0) > C[0]:
                raise StallError(
                    "descend",
                    "gap shrinking completed without freeing bin 1; the total "
                    "slack must be below the correction constant",
                )
    except StallError as stall:
        stall.rounds = rounds
        raise
    return rounds


def _descend_stage(
    inst: Instance, assignment: Assignment, cfg: SolverConfig, log: list
) -> int:
    """:func:`descend` one stage; after a matching or shrinking stall, undo
    the attempt's moves (latest first, emptying ``log``) and restart it with
    the attempt's resolved ``r`` and ``N`` halved, rounded up. The stall at
    ``r = N = 1`` is raised.
    """
    attempt = cfg
    while True:
        try:
            return descend(inst, assignment, attempt, log)
        except StallError as stall:
            attempt = attempt.resolved(inst)
            r, N = attempt.r, attempt.N
            if stall.op not in ("matching", "shrink_gaps") or max(r, N) <= 1:
                raise
        for mv in reversed(log):
            assignment.apply(
                (value, q, dst - 1, src - 1) for value, q, src, dst in mv.transfers
            )
        log.clear()
        attempt = attempt._replace(r=-(-r // 2), N=-(-N // 2))


class SolveResult(_Record):
    """What :func:`solve` found: ``status`` is "feasible", "infeasible" or
    "indeterminate"; ``stall`` is the text of the stall that ended the
    descent, if one did."""

    _fields = ("status", "assignment", "trace", "rounds", "stall", "oracle_used")

    def __init__(
        self,
        status: str,
        assignment: Assignment | None,
        trace: DescentTrace,
        rounds: int = 0,
        stall: str | None = None,
        oracle_used: bool = False,
    ) -> None:
        self.status, self.assignment, self.trace = status, assignment, trace
        self.rounds, self.stall, self.oracle_used = rounds, stall, oracle_used

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def solve(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Build a verified feasible assignment by descending suffix induction.

    One assignment is grown in place: stage ``i`` (from ``n`` down to 1)
    prepends bin ``i`` with its ``d`` balls of ``w_i``, descends the
    truncated problem on bins ``i..n`` and logs its moves with full-instance
    bins. The row and column sums are checked from scratch once, after the
    last stage, together with every capacity.

    Constant-weight truncations are decided directly: each suffix bin already
    holds ``d`` equal balls, so only the smallest capacity matters. Success
    is guaranteed whenever the corrected suffix conditions hold and the
    multiplicity clears its threshold. Below it a stalled stage restarts at
    half ``r`` and ``N``; a stall that remains ends the solve, and with
    ``fallback_to_oracle`` set the exact search decides the instance unless
    its node budget runs out.
    """
    cfg = cfg or SolverConfig()
    trace = DescentTrace()
    assignment = Assignment.single_bin(inst.weights[-1], inst.d)
    total_rounds = 0
    try:
        for i in range(inst.n, 0, -1):
            sub = inst.truncate(i)
            wt, Ct = sub.weights, sub.capacities
            # The descents so far moved balls only among bins i+1..n, so those
            # bins hold exactly their own supply: prepending bin i's d balls of
            # w_i gives stage i's start.
            if i < inst.n:
                assignment.prepend_bin(wt[0])
            if wt.is_constant():
                need = inst.d * wt[0]
                if Ct[Ct.n - 1] < need:
                    raise StallError(
                        "stage",
                        f"constant suffix at {i}: every bin needs {need}, "
                        f"capacity {Ct[Ct.n - 1]} is too small",
                    )
            else:
                local: list[Move] = []
                try:
                    total_rounds += _descend_stage(sub, assignment, cfg, local)
                finally:
                    trace.moves.extend(mv.shifted(i - 1, stage=i) for mv in local)
    except StallError as stall:
        total_rounds += stall.rounds
        if cfg.fallback_to_oracle:
            try:
                res = _oracle.decide(inst, 0)
            except _oracle.BudgetExceeded:
                pass
            else:
                return SolveResult(
                    "feasible" if res.feasible else "infeasible",
                    res.witness,
                    trace,
                    rounds=total_rounds,
                    stall=str(stall),
                    oracle_used=True,
                )
        return SolveResult(
            "indeterminate", None, trace, rounds=total_rounds, stall=str(stall)
        )
    assignment.validate()
    if not is_k_feasible(assignment, inst.capacities, 0):
        raise AssertionError("descent finished with an infeasible assignment")
    return SolveResult("feasible", assignment, trace, rounds=total_rounds)
