"""Exact integer domain types for equal-cardinality weighted bin packing.

The basic objects are a non-increasing weight profile ``w``, a non-increasing
capacity profile ``C``, and a multiplicity ``d``: the instance asks whether
``d`` balls of every weight can be spread over the ``n`` bins so that each bin
receives exactly ``d`` balls without exceeding its capacity.

Everything here is plain integer arithmetic on tuples; all types except
:class:`Assignment` are immutable and safe to share. A weight profile's class
table (:attr:`WeightProfile.classes`: its distinct values and how many
weights share each) is built once per profile, and every layer reads the
class structure from it. Assignments are count matrices over those classes,
never per-ball lists, so multiplicities in the tens of thousands cost nothing.
"""

from __future__ import annotations

from functools import cached_property
from operator import index, mul, sub
from typing import NamedTuple


class ProfileError(ValueError):
    """Raised for malformed weight/capacity profiles or invalid queries."""


class _Record:
    """Equality and ``repr`` over the attributes named in ``_fields``: a
    record equals only a record of its exact class with equal fields.
    Mutable and unhashable, unless it is a :class:`_Frozen` record."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class _Frozen(_Record):
    """A record whose constructor checks its fields and writes them into
    ``__dict__`` once; it hashes by its fields, and setting or deleting an
    attribute afterwards raises :class:`AttributeError`."""

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: {name}={value!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: del {name}")


class _Profile(_Frozen):
    """Non-empty, non-increasing tuple of integers: the body shared by
    :class:`WeightProfile` and :class:`CapacityProfile`, which compare and
    print as their own class."""

    _fields = ("entries",)
    _kind = _label = ""  # "weight"/"w" or "capacity"/"C", for messages
    _non_negative = False

    def __init__(self, entries: tuple[int, ...]) -> None:
        try:
            checked = tuple(map(index, entries))
        except TypeError:
            raise ProfileError(
                f"{self._kind} profile entries must be integers: {entries!r}"
            ) from None
        if not checked:
            raise ProfileError(f"{self._kind} profile must have at least one entry")
        if self._non_negative and min(checked) < 0:
            raise ProfileError("weights must be non-negative")
        for pos in range(1, len(checked)):
            if checked[pos] > checked[pos - 1]:
                raise ProfileError(
                    f"{self._label} not non-increasing at position {pos + 1}"
                )
        self.__dict__["entries"] = checked

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)

    def truncate(self, i: int):
        """Suffix starting at position ``i`` (1-based), as the same type.

        A suffix of a checked profile passes every check of its constructor,
        so the slice is stored without re-running them.
        """
        if not 1 <= i <= self.n:
            raise ProfileError(f"truncation index {i} out of range 1..{self.n}")
        out = object.__new__(type(self))
        out.__dict__["entries"] = self.entries[i - 1 :]
        return out

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, idx):
        return self.entries[idx]


class WeightProfile(_Profile):
    """Non-increasing tuple of ball weights; trailing zeros are significant."""

    _kind, _label = "weight", "w"
    _non_negative = True

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Class table ``(values, multiplicities)``: the distinct weight
        values in decreasing order and how many entries equal each one.
        Built on first use and kept with the profile."""
        values: list[int] = []
        mult: list[int] = []
        for v in self.entries:
            if values and values[-1] == v:
                mult[-1] += 1
            else:
                values.append(v)
                mult.append(1)
        return tuple(values), tuple(mult)

    def is_constant(self) -> bool:
        return self.entries[0] == self.entries[-1]


class CapacityProfile(_Profile):
    """Non-increasing tuple of bin capacities; entries may be negative."""

    _kind, _label = "capacity", "C"


class Instance(_Frozen):
    """A packing instance: multiplicity ``d`` plus paired weight/capacity profiles."""

    _fields = ("d", "weights", "capacities")

    def __init__(
        self, d: int, weights: WeightProfile, capacities: CapacityProfile
    ) -> None:
        try:
            checked = index(d)
        except TypeError:
            raise ProfileError(f"d must be a positive integer: {d!r}") from None
        if checked < 1:
            raise ProfileError("d must be a positive integer")
        if weights.n != capacities.n:
            raise ProfileError(
                f"profile lengths differ: {weights.n} weights vs "
                f"{capacities.n} capacities"
            )
        self.__dict__.update(d=checked, weights=weights, capacities=capacities)

    @property
    def n(self) -> int:
        return self.weights.n

    def truncate(self, i: int) -> "Instance":
        return Instance(self.d, self.weights.truncate(i), self.capacities.truncate(i))


def make_instance(d: int, w, C) -> Instance:
    """Convenience constructor from raw sequences."""
    return Instance(d, WeightProfile(tuple(w)), CapacityProfile(tuple(C)))


class ConjugateProfile(NamedTuple):
    """Run-length form of a conjugate (transposed) partition.

    ``rows`` is the declared number of parts (trailing zeros included), ``a0``
    counts full-height columns, and ``runs`` lists the remaining column
    heights with their multiplicities, heights strictly decreasing.
    """

    rows: int
    a0: int
    runs: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.runs)


def conjugate(w: WeightProfile, rows: int) -> ConjugateProfile:
    """Conjugate the Young diagram of ``w`` padded/declared to ``rows`` parts.

    Column ``j`` of the diagram has height ``#{i <= rows : w_i >= j}``, so
    the columns form one run per positive distinct value ``v``: its height
    is the number of entries ``>= v`` and its length is ``v`` minus the next
    smaller value (or ``v`` itself for the smallest positive value). The
    runs come straight from the value blocks, in O(n) whatever the weights'
    size. The result is sensitive to ``rows`` (trailing zeros change the
    run-length form), so the caller states it explicitly.
    """
    nonzero = sum(1 for v in w.entries if v > 0)
    if rows < nonzero:
        raise ProfileError(f"rows={rows} smaller than {nonzero} nonzero parts")
    runs: list[tuple[int, int]] = []
    for pos, v in enumerate(w.entries):
        below = w.entries[pos + 1] if pos + 1 < w.n else 0
        if v > below:
            runs.append((pos + 1, v - below))
    runs.reverse()
    a0 = 0
    if runs and runs[0][0] == rows:
        a0 = runs.pop(0)[1]
    return ConjugateProfile(rows=rows, a0=a0, runs=tuple(runs))


def b_constant(w: WeightProfile) -> int:
    """Correction constant of a weight profile.

    Zero when all entries are equal; otherwise ``sum(g - 1)`` over the gaps
    of positions 2..n (:func:`weight_gap_profile`), which equals the
    weighted sum of run overshoots of the conjugate diagram and costs O(n).
    This is the exact amount by which suffix-capacity bounds must exceed
    suffix demand to become sufficient for large multiplicities.
    """
    return b_row(w)[0]


def b_row(w: WeightProfile) -> tuple[int, ...]:
    """``b_constant(w.truncate(i))`` for every ``i``, in one O(n) backward pass.

    With ``v = w_i``, ``s`` the next smaller value and ``k`` the entries equal
    to ``v`` after ``i``, entry ``i - 1`` is ``k * (v - s - 1)`` plus
    ``pred(w_p) - w_p - 1`` over every lighter entry ``w_p``; 0 when none is.
    """
    e = w.entries
    row = [0] * w.n
    below = 0  # sum of pred(w_p) - w_p - 1 over the entries lighter than w_i
    ties = 0  # entries after i equal to w_i
    second = None  # next value below w_i; None while the suffix is constant
    for i in range(w.n - 2, -1, -1):
        v, after = e[i], e[i + 1]
        if v == after:
            ties += 1
        else:
            below += (ties + 1) * (v - after - 1)
            ties = 0
            second = after
        if second is not None:
            row[i] = ties * (v - second - 1) + below
    return tuple(row)


def weight_gap_profile(w: WeightProfile) -> tuple[int, ...]:
    """Gap of every position 2..n, read per class from ``w.classes``.

    The gap of ``w_i`` is the distance to the next strictly larger value;
    entries of the top block measure the drop to the second-largest value
    instead. Rejects constant profiles.
    """
    values, mult = w.classes
    if len(values) < 2:
        raise ProfileError("gap sequence undefined for constant weight profiles")
    drops = (values[0] - values[1],) + tuple(map(sub, values, values[1:]))
    return tuple(g for g, m in zip(drops, mult) for _ in range(m))[1:]


class Assignment:
    """Count matrix of balls per distinct weight value per bin.

    ``counts[c][j]`` is the number of balls of value ``class_values[c]``
    placed in bin ``j`` (bins 0-indexed here; reports print them 1-based).
    Every column sums to ``d`` and row ``c`` sums to ``class_supply[c]``.
    The matrix is dense, but a bin holds only a few classes: :meth:`from_bins`
    and the oracle fill and check it from the nonzero ``(class, count)``
    pairs (:meth:`from_pairs`); the constructor takes a whole dense matrix.
    Mutation happens only through :meth:`apply`, which moves balanced groups
    of ball transfers, and :meth:`prepend_bin`, which adds a full bin in
    front together with its supply, so the sums are preserved at every
    exposed state.
    """

    __slots__ = ("d", "class_values", "class_supply", "counts", "_bin_weights")

    def __init__(self, d: int, class_values, class_supply, counts):
        self.d = d
        self.class_values = tuple(class_values)
        self.class_supply = tuple(class_supply)
        self.counts = [list(row) for row in counts]
        bins = list(zip(*self.counts))
        self._bin_weights = [sum(map(mul, self.class_values, col)) for col in bins]
        self._check(bins)

    @classmethod
    def from_pairs(cls, d: int, class_values, class_supply, bins) -> "Assignment":
        """Build from per-bin ``(class, count)`` pairs, ``class`` indexing
        ``class_values`` (any other raises); a class may repeat within a bin.
        The matrix is filled, checked and weighed over the pairs only; when a
        check fails the dense constructor re-checks it, with its message."""
        values, supply = tuple(class_values), tuple(class_supply)
        counts = [[0] * len(bins) for _ in values]
        held = [0] * len(values)
        loads = []
        valid = True
        for j, pairs in enumerate(bins):
            balls = load = 0
            for c, q in pairs:
                if not 0 <= c < len(held):
                    raise ProfileError(f"bin {j + 1} holds unknown class {c}")
                counts[c][j] += q
                held[c] += q
                balls += q
                load += values[c] * q
                if q < 0:
                    valid = False
            loads.append(load)
            if balls != d:
                valid = False
        if not valid or tuple(held) != supply:
            return cls(d, values, supply, counts)
        out = cls.__new__(cls)
        out.d, out.class_values, out.class_supply = d, values, supply
        out.counts, out._bin_weights = counts, loads
        return out

    @classmethod
    def from_bins(cls, weights: WeightProfile, d: int, bins) -> "Assignment":
        """Build from per-bin ``{value: count}`` mappings (one per bin)."""
        values, mult = weights.classes
        row_of = {v: c for c, v in enumerate(values)}
        pairs = []
        for j, content in enumerate(bins):
            for v in content:
                if v not in row_of:
                    raise ProfileError(f"bin {j + 1} holds unknown weight value {v}")
            pairs.append([(row_of[v], q) for v, q in content.items()])
        return cls.from_pairs(d, values, [d * m for m in mult], pairs)

    @classmethod
    def diagonal(cls, weights: WeightProfile, d: int) -> "Assignment":
        """The assignment placing ``d`` balls of ``w_j`` in bin ``j``."""
        return cls.from_bins(weights, d, [{v: d} for v in weights.entries])

    @classmethod
    def single_bin(cls, value: int, d: int) -> "Assignment":
        """One bin holding ``d`` balls of ``value``: the last stage of a
        suffix induction, grown towards the front with :meth:`prepend_bin`."""
        return cls.from_pairs(d, (value,), (d,), [((0, d),)])

    @property
    def m(self) -> int:
        return len(self.class_values)

    @property
    def n(self) -> int:
        return len(self.counts[0]) if self.counts else 0

    def class_index(self, value: int) -> int:
        try:
            return self.class_values.index(value)
        except ValueError:
            raise ProfileError(f"no weight class with value {value}") from None

    def count_of(self, value: int, j: int) -> int:
        """Number of balls of the given weight value in bin ``j`` (0-based)."""
        return self.counts[self.class_index(value)][j]

    def bin_weight(self, j: int) -> int:
        return self._bin_weights[j]

    def apply(self, transfers) -> None:
        """Apply a balanced group of transfers ``(value, count, src, dst)``.

        Bins are 0-based here. The group must name bins of this assignment
        and preserve every bin's cardinality; anything else is a
        programming error in the caller and raises. Transfers take effect in
        order (a ball moved in may move on), but the whole group is checked
        before any count changes, so a rejected group leaves the assignment
        as it was.
        """
        staged = []  # (class, count, src, dst) of the checked transfers
        n = self.n
        delta = [0] * n
        for value, q, src, dst in transfers:
            if not (0 <= src < n and 0 <= dst < n):
                raise ProfileError(
                    f"transfer from bin {src + 1} to bin {dst + 1} "
                    f"outside bins 1..{n}"
                )
            if q < 0:
                raise ProfileError("transfer count must be non-negative")
            if q == 0:
                continue
            c = self.class_index(value)
            held = self.counts[c][src]
            for c2, q2, src2, dst2 in staged:
                if c2 == c:
                    held += (q2 if dst2 == src else 0) - (q2 if src2 == src else 0)
            if held < q:
                raise ProfileError(
                    f"bin {src + 1} holds {held} balls of value {value}, "
                    f"cannot move {q}"
                )
            staged.append((c, q, src, dst))
            delta[src] -= q
            delta[dst] += q
        if any(delta):
            raise ProfileError(f"unbalanced transfer group: bin deltas {delta}")
        for c, q, src, dst in staged:
            self.counts[c][src] -= q
            self.counts[c][dst] += q
            self._bin_weights[src] -= self.class_values[c] * q
            self._bin_weights[dst] += self.class_values[c] * q

    def prepend_bin(self, value: int) -> None:
        """Insert a new bin 0 holding ``d`` balls of ``value``; the old bins
        become bins ``1..n`` and ``value``'s supply grows by ``d``.

        ``value`` joins the top class when it equals the top value and opens
        a new top class above it when heavier; a lighter value would break
        the non-increasing order of the positions and raises.
        """
        top = self.class_values[0]
        if value < top:
            raise ProfileError(
                f"cannot prepend a bin of value {value} before top class {top}"
            )
        if value > top:
            self.class_values = (value,) + self.class_values
            self.class_supply = (0,) + self.class_supply
            self.counts.insert(0, [0] * self.n)
        self.class_supply = (self.class_supply[0] + self.d,) + self.class_supply[1:]
        for row in self.counts:
            row.insert(0, 0)
        self.counts[0][0] = self.d
        self._bin_weights.insert(0, value * self.d)

    def copy(self) -> "Assignment":
        return Assignment(self.d, self.class_values, self.class_supply, self.counts)

    def validate(self) -> None:
        """Check row/column sum invariants from scratch."""
        self._check(list(zip(*self.counts)))

    def _check(self, bins) -> None:
        """:meth:`validate` given the count matrix's columns ``bins``."""
        rows = self.counts
        held = tuple(map(sum, rows))
        if (bins and min(map(min, rows)) < 0) or held != self.class_supply:
            for c, row in enumerate(rows):
                if min(row, default=0) < 0:
                    raise ProfileError(f"negative count in class {c}")
                if held[c] != self.class_supply[c]:
                    raise ProfileError(
                        f"class {self.class_values[c]} holds {held[c]} balls, "
                        f"supply is {self.class_supply[c]}"
                    )
        loads = list(map(sum, bins))
        if loads.count(self.d) != len(loads):
            j = next(j for j, load in enumerate(loads) if load != self.d)
            raise ProfileError(f"bin {j + 1} holds {loads[j]} balls, expected {self.d}")

    def bin_notation(self, j: int) -> str:
        """Render bin ``j`` in ``value^count`` notation, e.g. ``5^2 3^1``."""
        parts = [
            f"{self.class_values[c]}^{self.counts[c][j]}"
            for c in range(self.m)
            if self.counts[c][j] > 0
        ]
        return " ".join(parts) if parts else "(empty)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return (
            self.d == other.d
            and self.class_values == other.class_values
            and self.counts == other.counts
        )

    def __repr__(self) -> str:
        bins = " | ".join(self.bin_notation(j) for j in range(self.n))
        return f"Assignment(d={self.d}, [{bins}])"


def gap_vector(assignment: Assignment, capacities: CapacityProfile) -> tuple[int, ...]:
    """Slack ``C_j - w(B_j)`` of every bin; negative entries mark overfull bins."""
    if assignment.n != capacities.n:
        raise ProfileError(
            f"assignment has {assignment.n} bins, capacities have {capacities.n}"
        )
    return tuple(map(sub, capacities.entries, assignment._bin_weights))


def is_k_feasible(assignment: Assignment, capacities: CapacityProfile, k: int) -> bool:
    """True iff bins beyond the first ``k`` all stay within capacity."""
    if not 0 <= k <= capacities.n:
        raise ProfileError(f"k={k} out of range 0..{capacities.n}")
    gv = gap_vector(assignment, capacities)
    return all(gv[j] >= 0 for j in range(k, capacities.n))


def d_threshold(w: WeightProfile) -> int:
    """Multiplicity above which the sufficient suffix conditions kick in."""
    n = w.n
    w1 = w.entries[0]
    return n**3 * w1 * (2 * n + w1)
