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
  index with a bin rich in that weight (found via bipartite matching), which
  either frees the head bin directly or drives every other bin's slack below
  its weight-profile gap.

The finished assignment's row and column sums are validated from scratch
once, with every capacity, before it is returned.

Stalls are first-class outcomes: below the multiplicity threshold the theory
gives no termination guarantee, and the engine reports exactly where it got
stuck instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import oracle as _oracle
from .core import (
    Assignment,
    CapacityProfile,
    Instance,
    WeightGapProfile,
    is_k_feasible,
    weight_gap_profile,
)

KIND_RELIEF = "relief-swap"
KIND_BOOST = "boost-3way"
KIND_CHAIN = "chain-swap"
KIND_CHAIN_EXIT = "chain-exit"
KIND_BLOCK = "block-swap"
KIND_TOP_EXIT = "top-exit"
KIND_NORMALIZE = "normalize"

FALLBACK_MAX_N = 8  # largest instances ``fallback_to_oracle`` hands over
FALLBACK_MAX_D = 24


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


@dataclass(frozen=True)
class Transfer:
    """Move ``count`` balls of ``value`` from bin ``src`` to bin ``dst`` (1-based)."""

    value: int
    count: int
    src: int
    dst: int


@dataclass(frozen=True)
class Move:
    """One trace entry: a balanced group of transfers plus diagnostics.

    ``i``/``j``/``l``/``t`` are step parameters local to the working
    (possibly truncated) problem; ``bin1_weight`` is the head-bin load after
    the move. ``stage`` is the suffix start position in the full instance.
    A relief move may carry ``count > 1``: it is that many unit swaps through
    the same bin, and ``bin1_weight`` is the load after the last of them.
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
            Transfer(tr.value, tr.count, tr.src + offset, tr.dst + offset)
            for tr in self.transfers
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
            f"{tr.value}x{tr.count}:{tr.src}>{tr.dst}" for tr in self.transfers
        )
        parts.append(f"moves={moved}")
        parts.append(f"w1={self.bin1_weight}")
        return " ".join(parts)


def _apply(assignment: Assignment, move: Move) -> None:
    """Apply ``move``'s 1-based transfers to ``assignment``."""
    assignment.apply(
        (tr.value, tr.count, tr.src - 1, tr.dst - 1) for tr in move.transfers
    )


@dataclass
class DescentTrace:
    """Ordered move log; replaying it from the initial assignment reproduces
    the final one exactly.

    A batched relief move serializes like any other move, as ``value x count``
    transfers, so the text format does not change with batching.
    """

    moves: list[Move] = field(default_factory=list)

    def serialize(self) -> str:
        return "\n".join(mv.serialize() for mv in self.moves) + (
            "\n" if self.moves else ""
        )

    def replay(self, initial: Assignment) -> Assignment:
        out = initial.copy()
        for mv in self.moves:
            _apply(out, mv)
        return out

    def __len__(self) -> int:
        return len(self.moves)


@dataclass(frozen=True)
class MatchingPermutation:
    """Permutation of 1..n fixing 1; position ``i`` names the bin paired with
    weight index ``i``."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)) or self.order[0] != 1:
            raise SolverUsageError(f"not a permutation fixing 1: {self.order}")

    def bin_for(self, i: int) -> int:
        return self.order[i - 1]


@dataclass
class SolverConfig:
    """Tunables for the descent engine.

    ``r`` is the matching richness threshold and ``N`` the target top-ball
    count in the head bin; both default to values that make the engine
    provably terminating once the multiplicity clears its threshold
    (``r = 2*n*w1``, ``N = (n-1)*n*r``, per working problem). Small
    experiments below the threshold should pass small overrides.
    ``fallback_to_oracle`` hands a stalled instance to the exact search when
    it has at most ``FALLBACK_MAX_N`` bins and ``FALLBACK_MAX_D`` balls per bin.
    """

    r: int | None = None
    N: int | None = None
    max_rounds: int | None = None
    fallback_to_oracle: bool = False

    def resolved_r(self, n: int, top_weight: int) -> int:
        return self.r if self.r is not None else 2 * n * top_weight

    def resolved_N(self, n: int, top_weight: int) -> int:
        if self.N is not None:
            return self.N
        return (n - 1) * n * self.resolved_r(n, top_weight)

    def resolved_max_rounds(self, d: int, top_weight: int, n: int) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return d * top_weight + n + 2


def position_values(assignment: Assignment) -> list[int]:
    """Weight value at each 1-based position, reconstructed from supplies."""
    out = []
    for c, v in enumerate(assignment.class_values):
        mult = assignment.class_supply[c] // assignment.d
        out.extend([v] * mult)
    return out


def _bin_gap(assignment: Assignment, capacities: CapacityProfile, b: int) -> int:
    return capacities[b - 1] - assignment.bin_weight(b - 1)


def relief_swap(
    assignment: Assignment,
    capacities: CapacityProfile,
    sink: list | None = None,
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
        gap = _bin_gap(assignment, capacities, b)
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
                move = Move(
                    kind=KIND_RELIEF,
                    transfers=(
                        Transfer(top, q, 1, b),
                        Transfer(value, q, b, 1),
                    ),
                    bin1_weight=assignment.bin_weight(0) - q * step,
                    j=b,
                )
                _apply(assignment, move)
                if sink is not None:
                    sink.append(move)
                return move
    return None


def boost_top_count(
    assignment: Assignment,
    cfg: SolverConfig,
    sink: list | None = None,
) -> list[Move]:
    """Raise the top-ball count of bin 1 to the configured target ``N``.

    Repeats a three-way exchange with some bin rich in top balls that keeps
    both bin loads and cardinalities unchanged while strictly increasing the
    number of top balls in bin 1. Stalls when the exchange material runs out
    before the target, which can only happen below the multiplicity bound.
    """
    values = position_values(assignment)
    n = assignment.n
    top = assignment.class_values[0]
    target = cfg.resolved_N(n, top)
    moves: list[Move] = []
    guard = 0
    while assignment.counts[0][0] < target:
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
                f"top count stuck at {assignment.counts[0][0]} < {target}",
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
        k_index = values.index(wk) + 1
        t_index = values.index(wt) + 1
        before = (assignment.bin_weight(0), assignment.bin_weight(rbin - 1))
        move = Move(
            kind=KIND_BOOST,
            transfers=(
                Transfer(wk, top - wt, 1, rbin),
                Transfer(wt, top - wk, rbin, 1),
                Transfer(top, wk - wt, rbin, 1),
            ),
            bin1_weight=before[0],
            i=k_index,
            j=rbin,
            t=t_index,
        )
        _apply(assignment, move)
        after = (assignment.bin_weight(0), assignment.bin_weight(rbin - 1))
        if before != after:
            raise AssertionError("three-way exchange changed a bin load")
        moves.append(move)
        if sink is not None:
            sink.append(move)
    return moves


def find_permutation(assignment: Assignment, cfg: SolverConfig) -> MatchingPermutation:
    """Pair every weight index 2..n with a distinct bin holding at least
    ``r`` balls of that weight, via augmenting-path bipartite matching.

    Any perfect matching is acceptable. When none exists, the stall error
    names a deficient index set whose joint neighborhood is too small.
    """
    values = position_values(assignment)
    n = assignment.n
    top = assignment.class_values[0]
    r = cfg.resolved_r(n, top)
    adj: dict[int, list[int]] = {}
    for i in range(2, n + 1):
        c = assignment.class_index(values[i - 1])
        adj[i] = [j for j in range(2, n + 1) if assignment.counts[c][j - 1] >= r]

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


def _need(assignment: Assignment, value: int, b: int, count: int, step: str) -> None:
    if assignment.count_of(value, b - 1) < count:
        raise StallError(
            "shrink_gaps",
            f"bin {b} holds {assignment.count_of(value, b - 1)} balls of value "
            f"{value}, step needs {count}",
            step=step,
        )


def shrink_gaps(
    assignment: Assignment,
    capacities: CapacityProfile,
    perm: MatchingPermutation,
    gaps: WeightGapProfile,
    sink: list | None = None,
) -> list[Move]:
    """Drive the slack of every bin beyond 1 below its weight-profile gap.

    Works in two sweeps over weight indices, each routed through ``perm``.
    The upward sweep (indices below the second-largest weight) repeatedly
    trades a ball for its predecessor value between the paired bins, pushing
    slack toward heavier indices; if that ever opens a gap of at least the
    top weight, a top ball leaves bin 1 and the pass exits early. The
    downward sweep handles the top block: a paired bin lacking a
    second-largest ball receives a block of them against top balls and one
    lighter ball (sized so its slack stays non-negative); otherwise a single
    top-for-second swap exits the pass. Either the pass exits early with a
    strictly lower bin-1 load, or it completes with every paired slack below
    its gap, which forces feasibility whenever the total-slack condition
    holds.

    All swaps preserve 1-feasibility. Raises a stall when a required ball is
    missing, which cannot happen once every paired bin holds ``r >= n*w1``
    balls of its weight.
    """
    values = position_values(assignment)
    n = assignment.n
    top = assignment.class_values[0]
    second = gaps.second_largest
    moves: list[Move] = []

    def record(move: Move) -> None:
        _apply(assignment, move)
        moves.append(move)
        if sink is not None:
            sink.append(move)

    def w(i: int) -> int:
        return values[i - 1]

    def gbin(b: int) -> int:
        return _bin_gap(assignment, capacities, b)

    def w1() -> int:
        return assignment.bin_weight(0)

    # Upward sweep over indices strictly below the second-largest weight.
    i = n
    while i >= 2 and w(i) < second:
        while gbin(perm.bin_for(i)) >= gaps.gap_at(i):
            pred = gaps.predecessor_of[w(i)]
            j = max(jj for jj in range(1, i) if values[jj - 1] == pred)
            bi, bj = perm.bin_for(i), perm.bin_for(j)
            _need(assignment, w(i), bi, 1, KIND_CHAIN)
            _need(assignment, pred, bj, 1, KIND_CHAIN)
            record(
                Move(
                    kind=KIND_CHAIN,
                    transfers=(Transfer(w(i), 1, bi, bj), Transfer(pred, 1, bj, bi)),
                    bin1_weight=w1(),
                    i=i,
                    j=j,
                )
            )
            if gbin(bj) >= top:
                _need(assignment, top, 1, 1, KIND_CHAIN_EXIT)
                _need(assignment, w(i), bj, 1, KIND_CHAIN_EXIT)
                record(
                    Move(
                        kind=KIND_CHAIN_EXIT,
                        transfers=(
                            Transfer(top, 1, 1, bj),
                            Transfer(w(i), 1, bj, 1),
                        ),
                        bin1_weight=w1() - top + w(i),
                        i=i,
                        j=j,
                    )
                )
                return moves
        i -= 1

    # Downward sweep over the top block.
    i = 2
    while i <= n and w(i) >= second:
        while gbin(perm.bin_for(i)) >= gaps.gap_at(i):
            bi = perm.bin_for(i)
            if assignment.count_of(second, bi - 1) == 0:
                j = next(
                    (jj for jj in range(i + 1, n + 1) if values[jj - 1] == second),
                    None,
                )
                if j is None:
                    raise StallError(
                        "shrink_gaps",
                        f"no index beyond {i} carries the second-largest weight",
                        step=KIND_BLOCK,
                    )
                l = next(
                    (
                        ll
                        for ll in range(j + 1, n + 1)
                        if values[ll - 1] < second
                        and assignment.count_of(values[ll - 1], bi - 1) > 0
                    ),
                    None,
                )
                if l is None:
                    raise StallError(
                        "shrink_gaps",
                        f"bin {bi} holds no ball lighter than {second}",
                        step=KIND_BLOCK,
                    )
                wl = values[l - 1]
                t = (second - wl) // gaps.gap_at(i)
                bj = perm.bin_for(j)
                _need(assignment, second, bj, t + 1, KIND_BLOCK)
                _need(assignment, top, bi, t, KIND_BLOCK)
                _need(assignment, wl, bi, 1, KIND_BLOCK)
                record(
                    Move(
                        kind=KIND_BLOCK,
                        transfers=(
                            Transfer(second, t + 1, bj, bi),
                            Transfer(top, t, bi, bj),
                            Transfer(wl, 1, bi, bj),
                        ),
                        bin1_weight=w1(),
                        i=i,
                        j=j,
                        l=l,
                        t=t,
                    )
                )
            else:
                _need(assignment, top, 1, 1, KIND_TOP_EXIT)
                record(
                    Move(
                        kind=KIND_TOP_EXIT,
                        transfers=(
                            Transfer(top, 1, 1, bi),
                            Transfer(second, 1, bi, 1),
                        ),
                        bin1_weight=w1() - top + second,
                        i=i,
                    )
                )
                return moves
        i += 1
    return moves


def normalize_suffix(
    inst: Instance, i: int, prev: Assignment, sink: list | None = None
) -> Assignment:
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
        move = Move(
            kind=KIND_NORMALIZE,
            transfers=(
                Transfer(prev.class_values[c_plus], q, src + 1, dst + 1),
                Transfer(prev.class_values[c_minus], q, dst + 1, src + 1),
            ),
            bin1_weight=prev.bin_weight(0),
            stage=i,
        )
        _apply(prev, move)
        excess[c_plus] -= q
        excess[c_minus] += q
        if sink is not None:
            sink.append(move)
    return prev


def descend(
    inst: Instance,
    assignment: Assignment,
    cfg: SolverConfig,
    sink: list | None = None,
) -> int:
    """Lower the load of bin 1 until it fits; rounds count unit improvements.

    ``assignment`` must be 1-feasible for ``inst`` and hold exactly its
    supply. Returns the number of rounds: a batched relief move of ``q`` unit
    swaps counts as ``q`` rounds, any other round as one, and ``max_rounds``
    caps that count. Raises :class:`StallError` when no exchange applies,
    which the theory rules out once the multiplicity clears its threshold and
    the total-slack condition holds; the error's ``rounds`` holds the rounds
    made before the stall.
    """
    C = inst.capacities
    top = inst.weights[0]
    max_rounds = cfg.resolved_max_rounds(inst.d, top, inst.n)
    gaps = None  # built on the first shrinking round; fixed for the descent
    rounds = 0
    try:
        while assignment.bin_weight(0) > C[0]:
            if rounds >= max_rounds:
                raise StallError("descend", f"no convergence after {rounds} rounds")
            move = relief_swap(assignment, C, sink, limit=max_rounds - rounds)
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
                boost_top_count(assignment, cfg, sink)
            except StallError:
                # The exchange ran out of material before the target count. The
                # shrinking pass only needs a top ball in bin 1 for its exit
                # swaps, so push on when one is there; its own stall (or lack of
                # progress) is the decisive signal.
                if assignment.counts[0][0] == 0:
                    raise
            if relief_swap(assignment, C, sink) is not None:
                continue
            perm = find_permutation(assignment, cfg)
            if gaps is None:
                gaps = weight_gap_profile(inst.weights)
            before = assignment.bin_weight(0)
            shrink_gaps(assignment, C, perm, gaps, sink)
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


@dataclass
class SolveResult:
    status: str  # "feasible" | "infeasible" | "indeterminate"
    assignment: Assignment | None
    trace: DescentTrace
    rounds: int = 0
    stall: str | None = None
    oracle_used: bool = False

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
    multiplicity clears its threshold; otherwise the engine may stall, and
    with ``fallback_to_oracle`` set it hands desk-scale instances to the
    exact search instead of giving up.
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
                    total_rounds += descend(sub, assignment, cfg, local)
                finally:
                    trace.moves.extend(mv.shifted(i - 1, stage=i) for mv in local)
    except StallError as stall:
        total_rounds += stall.rounds
        small = inst.n <= FALLBACK_MAX_N and inst.d <= FALLBACK_MAX_D
        if cfg.fallback_to_oracle and small:
            try:
                res = _oracle.decide(inst, 0)
            except _oracle.BudgetExceeded:
                res = None
            if res is not None:
                status = "feasible" if res.feasible else "infeasible"
                return SolveResult(
                    status,
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
