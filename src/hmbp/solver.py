"""Constructive feasibility engine.

Builds a feasible assignment by descending induction over suffixes of the
instance: after stage ``i`` the bins ``i..n`` hold exactly the suffix supply
and satisfy their capacities. One assignment serves the whole induction:
stage ``i`` grows it in place by bin ``i`` with its own ``d`` balls in front
(:meth:`~hmbp.core.Assignment.prepend_bin`). A stage whose new head bin fits
ends there; any other runs a descent loop on the working assignment and the
capacities of its bins ``i..n`` which strictly lowers the load of the head
bin until it fits, using three kinds of ball exchanges:

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
second-largest value inside the top block). A descent reads its bin slacks
once, from :func:`~hmbp.core.gap_vector`, into one list that the relief and
shrinking steps keep current from their own transfers. Each stage logs its
moves with full-instance bins from the start: the steps name bins of the
working assignment, and the one helper that records a move adds the stage's
bin offset as it builds the move.

The finished assignment's row and column sums are validated from scratch
once, with every capacity, before it is returned.

Stalls are first-class outcomes: below the multiplicity threshold the theory
gives no termination guarantee. A stage that stalls in the matching or the
shrinking step is undone and restarted with the richness threshold ``r`` and
the top-count target ``N`` halved; the stall is reported, with exactly where
the engine got stuck, once ``r = N = 1`` stalls too. The solver never asks
the exact search (:mod:`hmbp.oracle`), so a feasible answer is always its
own construction, and its trace replays to it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .core import (
    Assignment,
    CapacityProfile,
    Instance,
    _Frozen,
    _Record,
    gap_vector,
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
    assignment after them and appends the move to the step's log. The
    transfers name full-instance bins from the start: a stage's log knows
    its bin offset and its ``stage``, the suffix start position in the full
    instance. ``i``/``j``/``l``/``t`` stay step parameters local to the
    working (possibly truncated) problem. A relief move may carry
    ``count > 1``: it is that many unit swaps through the same bin, and
    ``bin1_weight`` is the load after the last of them.
    """

    kind: str
    transfers: tuple[Transfer, ...]
    bin1_weight: int
    stage: int = 1
    i: int | None = None
    j: int | None = None
    l: int | None = None
    t: int | None = None

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


class _StageLog(list):
    """The move log of one stage: its steps name bins ``1..`` of the working
    assignment, which are the full-instance bins ``offset + 1..``, and each
    move it holds is tagged ``stage``. A plain list is a log at offset 0,
    stage 1."""

    __slots__ = ("offset", "stage")

    def __init__(self, offset: int, stage: int) -> None:
        super().__init__()
        self.offset, self.stage = offset, stage


def _record(
    assignment: Assignment, log: list, kind, transfers, i=None, j=None, l=None, t=None
) -> Move:
    """Apply ``transfers``, plain ``(value, count, src, dst)`` tuples with
    1-based bins of ``assignment``, append them to ``log`` as one move of
    ``kind`` with the log's offset added to every bin, and return it; the
    move's ``bin1_weight`` is the head-bin load after the transfers."""
    assignment.apply([(v, q, src - 1, dst - 1) for v, q, src, dst in transfers])
    offset, stage = (log.offset, log.stage) if type(log) is _StageLog else (0, 1)
    moved = tuple(
        [Transfer(v, q, src + offset, dst + offset) for v, q, src, dst in transfers]
    )
    move = Move(kind, moved, assignment.bin_weight(0), stage, i, j, l, t)
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
        return "".join(mv.serialize() + "\n" for mv in self.moves)

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
    (``r = 2*n*w1``, ``N = (n-1)*n*r``, per working assignment), and
    ``max_rounds`` defaults to ``d*w1 + n + 2``; a default is never below 1.
    :meth:`resolved` fills the unset values in for one working assignment
    and refuses a set value that is not an integer or is below 1; each
    stage resolves once, on its start assignment, and hands the steps plain
    numbers. Below the threshold no bin may be that rich: a stage that
    stalls in the matching or the shrinking step restarts from its start
    state with the resolved ``r`` and ``N`` halved, rounded up, down to 1.
    """

    r: int | None = None
    N: int | None = None
    max_rounds: int | None = None

    def resolved(self, work: Assignment) -> "SolverConfig":
        """This config with every unset tunable at its default for the
        working assignment ``work``: its bin count, top value and ``d``. A
        config with every tunable an ``int`` of at least 1 is its own
        resolution; a bool, a float or any value below 1 raises."""
        r, N, max_rounds = self
        if type(r) is type(N) is type(max_rounds) is int and min(self) >= 1:
            return self
        for name, value in zip(self._fields, self):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise SolverUsageError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise SolverUsageError(f"{name} must be at least 1, got {value}")
        n, top = work.n, work.class_values[0]
        if r is None:
            r = max(1, 2 * n * top)
        if N is None:
            N = max(1, (n - 1) * n * r)
        if max_rounds is None:
            max_rounds = work.d * top + n + 2
        return SolverConfig(r, N, max_rounds)


def _first_positions(assignment: Assignment) -> list[int]:
    """``first[c]``, the 1-based position where weight class ``c`` starts,
    for every class, followed by ``first[m] = n + 1``."""
    d = assignment.d
    return list(accumulate((s // d for s in assignment.class_supply), initial=1))


def relief_swap(
    assignment: Assignment, slack: list[int], log: list, *, limit: int = 1
) -> Move | None:
    """Swap top-weight balls out of bin 1 through a bin with slack >= w1.

    ``slack`` holds the current bin slacks by 1-based bin (entry 0 unused):
    the list :func:`descend` reads once from :func:`~hmbp.core.gap_vector`,
    which the swap keeps current. Picks the lowest-index bin ``b`` whose
    slack is at least the top weight and which holds some lighter ball, and
    trades balls of the lightest such value ``v`` for top balls from bin 1.
    Each unit swap strictly lowers the bin-1 load by ``w1 - v`` and
    preserves 1-feasibility.

    One call makes ``q`` unit swaps at once, recorded as one move: ``q`` is
    the smallest of ``limit``, the top balls in bin 1, the class-``v`` balls
    in bin ``b``, the swaps bin ``b``'s slack allows while it stays at least
    ``w1``, and the swaps needed until bin 1 fits. Only bins 1 and ``b``
    change, so ``q`` calls with ``limit=1`` would make the same ``q`` swaps.
    Returns None when no swap applies. A ``limit`` that is not an ``int``
    (a bool or a float included) or is below 1 raises
    :class:`SolverUsageError`.
    """
    if type(limit) is not int:
        raise SolverUsageError(f"relief limit must be an integer, got {limit!r}")
    if limit < 1:
        raise SolverUsageError(f"relief limit must be at least 1, got {limit}")
    top = assignment.class_values[0]
    excess, tops = -slack[1], assignment.count_of(top, 0)
    if excess <= 0 or tops == 0:
        return None
    for b, gap in enumerate(slack[2:], 2):
        if gap < top:
            continue
        value, held = min(assignment.bin_items(b - 1))  # lightest value first
        if value < top:
            step = top - value
            q = min(limit, tops, held, (gap - top) // step + 1, -(-excess // step))
            transfers = ((top, q, 1, b), (value, q, b, 1))
            move = _record(assignment, log, KIND_RELIEF, transfers, j=b)
            slack[1] += step * q
            slack[b] -= step * q
            return move
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
    values = assignment.class_values
    top = values[0]
    guard = 0
    while assignment.count_of(top, 0) < N:
        guard += 1
        if guard > assignment.d + 1:
            raise StallError("boost", "exchange loop exceeded its iteration bound")
        held = (assignment.count_of(values[c], 0) for c in range(1, assignment.m))
        k_class = next((c for c, q in enumerate(held, 1) if q >= top), None)
        if k_class is None:
            raise StallError(
                "boost",
                f"bin 1 holds no non-top value with at least {top} balls; "
                f"top count stuck at {assignment.count_of(top, 0)} < {N}",
            )
        rbin = max(range(2, n + 1), key=lambda b: (assignment.count_of(top, b - 1), -b))
        if assignment.count_of(top, rbin - 1) == 0:
            raise StallError("boost", "no bin beyond 1 holds any top ball")
        wk = values[k_class]
        t_class = None
        for c in range(k_class + 1, assignment.m):
            wt = values[c]
            if (
                assignment.count_of(wt, rbin - 1) >= top - wk
                and assignment.count_of(top, rbin - 1) >= wk - wt
                and assignment.count_of(wk, 0) >= top - wt
            ):
                t_class = c
                break
        if t_class is None:
            raise StallError(
                "boost",
                f"no value below {wk} with enough balls in bin {rbin} to "
                f"exchange against",
            )
        wt = values[t_class]
        before = (assignment.bin_weight(0), assignment.bin_weight(rbin - 1))
        move = _record(
            assignment,
            log,
            KIND_BOOST,
            ((wk, top - wt, 1, rbin), (wt, top - wk, rbin, 1), (top, wk - wt, rbin, 1)),
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
    names a deficient index set whose joint neighborhood is too small. Each
    augmenting path is a depth-first walk kept on an explicit stack, so a
    path through every bin costs no interpreter stack. An ``r`` below 1
    raises.
    """
    if r < 1:
        raise SolverUsageError(f"r must be at least 1, got {r}")
    first = _first_positions(assignment)
    n = assignment.n
    rich = {v: [] for v in assignment.class_values}
    for j in range(2, n + 1):
        for v, q in assignment.bin_items(j - 1):
            if q >= r:
                rich[v].append(j)
    adj: dict[int, list[int]] = {}
    for c, v in enumerate(assignment.class_values):
        for i in range(max(first[c], 2), first[c + 1]):
            adj[i] = rich[v]

    match_right: dict[int, int] = {}
    for i in range(2, n + 1):
        # An augmenting path from index i, walked depth-first on a stack:
        # level 0 tries index i's unvisited bins in order, and the bin
        # taken[k] sends the walk on to level k + 1, the index holding it.
        visited: set[int] = set()
        taken, todo = [], [iter(adj[i])]
        while todo:
            for j in todo[-1]:
                if j not in visited:
                    break
            else:  # this level failed: back to the bin before it
                todo.pop()
                if taken:
                    taken.pop()
                continue
            visited.add(j)
            taken.append(j)
            if j not in match_right:
                # Each taken bin passes to the index that took it.
                index = i
                for b in taken:
                    index, match_right[b] = match_right.get(b), index
                break
            todo.append(iter(adj[match_right[j]]))
        else:
            deficient = sorted({i} | {match_right[j] for j in visited})
            raise StallError(
                "matching",
                f"weight indices {deficient} reach only bins {sorted(visited)} "
                f"with {r} or more balls",
                deficient=tuple(deficient),
            )
    order = [1] + [0] * (n - 1)
    for j, i in match_right.items():
        order[i - 1] = j
    return MatchingPermutation(tuple(order))


def shrink_gaps(
    assignment: Assignment, slack: list[int], perm: MatchingPermutation, log: list
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
    class has no gaps and is refused. ``slack`` is the descent's list of
    bin slacks, kept current as in :func:`relief_swap`.
    """
    if assignment.m < 2:
        raise SolverUsageError("shrink_gaps needs at least two weight classes")
    values = assignment.class_values
    first = _first_positions(assignment)
    top, second = values[0], values[1]

    def step(kind: str, transfers: tuple, i, j=None, l=None, t=None) -> None:
        for value, q, src, _ in transfers:
            held = assignment.count_of(value, src - 1)
            if held < q:
                raise StallError(
                    "shrink_gaps",
                    f"bin {src} holds {held} balls of value {value}, step needs {q}",
                    step=kind,
                )
        _record(assignment, log, kind, transfers, i, j, l, t)
        for value, q, src, dst in transfers:
            slack[src] += value * q
            slack[dst] -= value * q

    # Upward sweep over the classes below the second-largest value.
    for c in range(assignment.m - 1, 1, -1):
        v, pred = values[c], values[c - 1]
        j = first[c] - 1
        bj = perm.bin_for(j)
        for i in range(first[c + 1] - 1, first[c] - 1, -1):
            bi = perm.bin_for(i)
            while slack[bi] >= pred - v:
                step(KIND_CHAIN, ((v, 1, bi, bj), (pred, 1, bj, bi)), i, j)
                if slack[bj] >= top:
                    step(KIND_CHAIN_EXIT, ((top, 1, 1, bj), (v, 1, bj, 1)), i, j)
                    return

    # Downward sweep over the top block.
    for i in range(2, first[2]):
        bi = perm.bin_for(i)
        while slack[bi] >= top - second:
            if assignment.count_of(second, bi - 1):
                step(KIND_TOP_EXIT, ((top, 1, 1, bi), (second, 1, bi, 1)), i)
                return
            j = max(i + 1, first[1])
            if j >= first[2]:
                raise StallError(
                    "shrink_gaps",
                    f"no index beyond {i} carries the second-largest weight",
                    step=KIND_BLOCK,
                )
            lighter = [v for v, _ in assignment.bin_items(bi - 1) if v < second]
            if not lighter:
                raise StallError(
                    "shrink_gaps",
                    f"bin {bi} holds no ball lighter than {second}",
                    step=KIND_BLOCK,
                )
            wl = max(lighter)
            t = (second - wl) // (top - second)
            bj = perm.bin_for(j)
            transfers = ((second, t + 1, bj, bi), (top, t, bi, bj), (wl, 1, bi, bj))
            step(KIND_BLOCK, transfers, i, j, first[values.index(wl)], t)


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
    values = prev.class_values
    index = {v: c for c, v in enumerate(values)}
    moves = _StageLog(0, i)  # the whole assignment's bins, tagged stage i
    excess = [0] * m  # suffix balls of each class less its suffix supply
    for pos in range(i, n + 1):
        excess[index[inst.weights[pos - 1]]] -= inst.d
        for v, q in prev.bin_items(pos - 1):
            excess[index[v]] += q
    while True:
        c_plus = next((c for c in range(m) if excess[c] > 0), None)
        if c_plus is None:
            break
        c_minus = next(c for c in range(m - 1, -1, -1) if excess[c] < 0)
        v_plus, v_minus = values[c_plus], values[c_minus]
        src = next(j for j in range(i - 1, n) if prev.count_of(v_plus, j))
        dst = next(j for j in range(i - 1) if prev.count_of(v_minus, j))
        q = min(
            excess[c_plus],
            -excess[c_minus],
            prev.count_of(v_plus, src),
            prev.count_of(v_minus, dst),
        )
        transfers = ((v_plus, q, src + 1, dst + 1), (v_minus, q, dst + 1, src + 1))
        _record(prev, moves, KIND_NORMALIZE, transfers)
        excess[c_plus] -= q
        excess[c_minus] += q
    log.extend(moves)


def descend(
    assignment: Assignment,
    capacities: CapacityProfile,
    cfg: SolverConfig,
    log: list,
) -> int:
    """Lower the load of bin 1 until it fits; rounds count unit improvements.

    ``assignment`` must have one bin per capacity and be 1-feasible for
    ``capacities``, or :class:`~hmbp.core.ProfileError` and
    :class:`SolverUsageError` are raised before any move; its moves are
    appended to ``log``. ``cfg`` is resolved for ``assignment`` once, and
    the steps get its ``r`` and ``N`` as plain numbers. The bin slacks are
    read once, from :func:`~hmbp.core.gap_vector` for the start check, into
    the list by 1-based bin that the relief and shrinking steps take as
    ``slack`` and keep current; no step reads the capacities. A boost that
    logs no move leaves the state relief just refused, so relief is not
    asked again.
    Returns the number of rounds: a batched relief move of ``q`` unit swaps
    counts as ``q`` rounds, any other round as one, and ``max_rounds`` caps
    that count. Raises :class:`StallError` when no exchange applies,
    which the theory rules out once the multiplicity clears its threshold and
    the total-slack condition holds; the error's ``rounds`` holds the rounds
    made before the stall.
    """
    slack = [0, *gap_vector(assignment, capacities)]  # by 1-based bin
    if min(slack[2:], default=0) < 0:
        raise SolverUsageError("start assignment is not 1-feasible")
    cfg = cfg.resolved(assignment)
    top = assignment.class_values[0]
    max_rounds = cfg.max_rounds
    rounds = 0
    try:
        while slack[1] < 0:
            if rounds >= max_rounds:
                raise StallError("descend", f"no convergence after {rounds} rounds")
            move = relief_swap(assignment, slack, log, limit=max_rounds - rounds)
            if move is not None:
                rounds += move.transfers[0].count
                continue
            rounds += 1
            if assignment.m == 1:
                raise StallError(
                    "descend",
                    f"all weights equal {top}: every bin needs capacity "
                    f"{assignment.d * top}, bin 1 has {capacities.entries[0]}",
                )
            logged = len(log)
            try:
                boost_top_count(assignment, cfg.N, log)
            except StallError:
                # The exchange ran out of material before the target count. The
                # shrinking pass only needs a top ball in bin 1 for its exit
                # swaps, so push on when one is there; its own stall (or lack of
                # progress) is the decisive signal.
                if assignment.count_of(top, 0) == 0:
                    raise
            # The boost keeps every bin load, so the slacks stay current, and
            # a boost that moved nothing leaves the state relief just refused.
            if len(log) > logged and relief_swap(assignment, slack, log) is not None:
                continue
            perm = find_permutation(assignment, cfg.r)
            before = slack[1]
            shrink_gaps(assignment, slack, perm, log)
            if slack[1] <= before and slack[1] < 0:
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
    assignment: Assignment, capacities: CapacityProfile, cfg: SolverConfig, log: list
) -> int:
    """:func:`descend` one stage with ``cfg`` resolved on its start
    assignment; after a matching or shrinking stall, undo the attempt's moves
    (latest first, their full-instance bins taken back by the log's offset,
    emptying ``log``) and restart it with ``r`` and ``N`` halved, rounded
    up. The stall at ``r = N = 1`` is raised.
    """
    attempt = cfg.resolved(assignment)
    shift = log.offset + 1  # full-instance bin to 0-based working bin
    while True:
        try:
            return descend(assignment, capacities, attempt, log)
        except StallError as stall:
            r, N = attempt.r, attempt.N
            if stall.op not in ("matching", "shrink_gaps") or max(r, N) <= 1:
                raise
        for mv in reversed(log):
            assignment.apply(
                [(v, q, dst - shift, src - shift) for v, q, src, dst in mv.transfers]
            )
        log.clear()
        attempt = attempt._replace(r=-(-r // 2), N=-(-N // 2))


class SolveResult(_Record):
    """What :func:`solve` built: ``status`` is "feasible", with the assignment
    that ``trace`` replays to from the diagonal start, or "indeterminate",
    with no assignment and ``stall``, the text of the stall that ended the
    descent."""

    _fields = ("status", "assignment", "trace", "rounds", "stall")

    def __init__(
        self,
        status: str,
        assignment: Assignment | None,
        trace: DescentTrace,
        rounds: int = 0,
        stall: str | None = None,
    ) -> None:
        self.status, self.assignment, self.trace = status, assignment, trace
        self.rounds, self.stall = rounds, stall

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def solve(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Build a verified feasible assignment by descending suffix induction.

    One assignment is grown in place: stage ``i`` (from ``n`` down to 1)
    prepends bin ``i`` with its ``d`` balls of ``w_i``; unless they fit, it
    descends on bins ``i..n`` under their capacities and logs its moves with
    full-instance bins as it makes them. A constant suffix fits where its
    last bin does. The row and column sums are checked from scratch once,
    after the last stage, together with every capacity. A tunable that is
    not an integer or is below 1 raises at once.

    Success is guaranteed whenever the corrected suffix conditions hold and
    the multiplicity clears its threshold. Below it a stalled stage restarts
    at half ``r`` and ``N``; a stall that remains ends the solve as
    "indeterminate". A stall decides nothing: :func:`hmbp.oracle.decide` is
    the exact answer for a stalled instance.
    """
    cfg = cfg or SolverConfig()
    d, w, C = inst.d, inst.weights.entries, inst.capacities
    trace = DescentTrace()
    assignment = Assignment.single_bin(w[-1], d)
    cfg.resolved(assignment)  # a tunable set below 1 raises before any stage
    total_rounds = 0
    try:
        for i in range(len(w), 0, -1):
            # The descents so far moved balls only among bins i+1..n, so those
            # bins hold exactly their own supply: prepending bin i's d balls of
            # w_i gives stage i's start, and the stage is over if they fit.
            if i < len(w):
                assignment.prepend_bin(w[i - 1])
            if d * w[i - 1] <= C.entries[i - 1]:
                continue
            if w[i - 1] == w[-1]:
                raise StallError(
                    "stage",
                    f"constant suffix at {i}: every bin needs {d * w[-1]}, "
                    f"capacity {C.entries[-1]} is too small",
                )
            log = _StageLog(i - 1, i)
            try:
                total_rounds += _descend_stage(assignment, C.truncate(i), cfg, log)
            finally:
                trace.moves += log
    except StallError as stall:
        return SolveResult(
            "indeterminate", None, trace, total_rounds + stall.rounds, str(stall)
        )
    assignment.validate()
    if not is_k_feasible(assignment, C, 0):
        raise AssertionError("descent finished with an infeasible assignment")
    return SolveResult("feasible", assignment, trace, rounds=total_rounds)
