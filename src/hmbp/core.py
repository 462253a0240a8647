"""Exact integer domain types for equal-cardinality weighted bin packing.

The basic objects are a non-increasing weight profile ``w``, a non-increasing
capacity profile ``C``, and a multiplicity ``d``: the instance asks whether
``d`` balls of every weight can be spread over the ``n`` bins so that each bin
receives exactly ``d`` balls without exceeding its capacity.

Everything here is plain integer arithmetic on tuples; all types except
:class:`Assignment` are immutable and safe to share. A weight profile's
tables are each built once per profile, on first use, and every layer reads
them in place: the class table (:attr:`WeightProfile.classes`: its distinct
values and how many weights share each), the correction constant of every
suffix (:attr:`WeightProfile.b_row`) and the gap of every position
(:attr:`WeightProfile.gaps`). An assignment holds
each bin's nonzero counts keyed by weight value, never per-ball lists or a
dense matrix, so multiplicities in the tens of thousands cost nothing.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from operator import index, sub
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
        if not 1 <= i <= len(self.entries):
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

    @cached_property
    def b_row(self) -> tuple[int, ...]:
        """``b_constant(self.truncate(i))`` for every ``i``, in one O(n)
        backward pass, built on first use and kept with the profile.

        With ``v = w_i``, ``s`` the next smaller value and ``k`` the entries
        equal to ``v`` after ``i``, entry ``i - 1`` is ``k * (v - s - 1)``
        plus ``pred(w_p) - w_p - 1`` over every lighter entry ``w_p``; 0
        when none is.
        """
        e = self.entries
        row = [0] * len(e)
        below = 0  # sum of pred(w_p) - w_p - 1 over the entries lighter than w_i
        ties = 0  # entries after i equal to w_i
        second = None  # next value below w_i; None while the suffix is constant
        for i in range(len(e) - 2, -1, -1):
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

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        """Gap of every position 2..n, read per class from :attr:`classes`,
        built on first use and kept with the profile.

        The gap of ``w_i`` is the distance to the next strictly larger
        value; entries of the top block measure the drop to the
        second-largest value instead. Rejects constant profiles.
        """
        values, mult = self.classes
        if len(values) < 2:
            raise ProfileError("gap sequence undefined for constant weight profiles")
        drops = (values[0] - values[1],) + tuple(map(sub, values, values[1:]))
        return tuple(chain.from_iterable(map(repeat, drops, mult)))[1:]

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
    of positions 2..n (:attr:`WeightProfile.gaps`), which equals the
    weighted sum of run overshoots of the conjugate diagram and costs O(n).
    This is the exact amount by which suffix-capacity bounds must exceed
    suffix demand to become sufficient for large multiplicities.
    """
    return w.b_row[0]


def _diagonal_bins(mult, d: int, first: int = 0) -> list:
    """Every position's diagonal bin, ``d`` balls of its own class, as
    ``(class, count)`` pairs; ``mult`` gives the positions of each class,
    and the classes are numbered from ``first``. The positions of one class
    share one bin tuple."""
    bins = []
    for c, count in enumerate(mult, first):
        bins += [((c, d),)] * count
    return bins


class Assignment:
    """Balls per weight value per bin, stored as each bin's nonzero counts.

    Bin ``j`` (0-based; reports print bins 1-based) is a dict ``{value:
    count}`` of positive counts, kept with its load; every bin holds ``d``
    balls, and all hold ``class_supply[c]`` of ``class_values[c]``
    (decreasing). The constructor takes ``int`` ``d``, values and supplies
    and per-bin ``(class, count)`` pairs, ``class`` indexing
    ``class_values`` (any other raises), ``count`` an ``int`` and repeated
    classes adding up (a bool or a float anywhere raises), and
    runs one check; :attr:`counts` is a dense view
    ``counts[c][j]``. Only :meth:`apply`, which moves balanced
    groups of transfers, and :meth:`prepend_bin`, which adds a full bin and
    its supply, change it, so the sums hold at every exposed state.
    """

    __slots__ = ("d", "class_values", "class_supply", "_bins", "_bin_weights")

    def __init__(self, d: int, class_values, class_supply, bins) -> None:
        values, supply = tuple(class_values), tuple(class_supply)
        for what, row in (("d", (d,)), ("class value", values), ("supply", supply)):
            for x in row:
                if type(x) is not int:
                    raise ProfileError(f"{what} {x!r} is not an integer")
        m = len(values)
        held = [0] * m
        stored, loads, sizes = [], [], []
        low = 1  # the least count of a pair
        for j, pairs in enumerate(bins):
            content = {}
            balls = load = 0
            for c, q in pairs:
                if not 0 <= c < m:
                    raise ProfileError(f"bin {j + 1} holds unknown class {c}")
                if type(q) is not int:
                    raise ProfileError(f"bin {j + 1}: count {q!r} is not an integer")
                v = values[c]
                content[v] = content.get(v, 0) + q
                held[c] += q
                balls += q
                load += v * q
                if q < low:
                    low = q
            stored.append(content)
            loads.append(load)
            sizes.append(balls)
        if low <= 0:  # a count may net to 0
            stored = [{v: q for v, q in b.items() if q} for b in stored]
        self.d, self.class_values, self.class_supply = d, values, supply
        self._bins, self._bin_weights = stored, loads
        self._check(held, sizes, low)

    def _check(self, held, sizes, low) -> None:
        """The one check of the constructor and :meth:`validate`, given the
        balls of each class and of each bin and the least count. First fault
        raises: by class, heaviest first, a negative count or a total other
        than the supply; then the first bin without ``d`` balls."""
        values, supply, d = self.class_values, self.class_supply, self.d
        if low < 0 or tuple(held) != supply:
            for c, v in enumerate(values):
                if any(b.get(v, 0) < 0 for b in self._bins):
                    raise ProfileError(f"negative count in class {c}")
                if held[c] != supply[c]:
                    raise ProfileError(
                        f"class {v} holds {held[c]} balls, supply is {supply[c]}"
                    )
        if sizes.count(d) != len(sizes):
            j = next(j for j, size in enumerate(sizes) if size != d)
            raise ProfileError(f"bin {j + 1} holds {sizes[j]} balls, expected {d}")

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
        return cls(d, values, [d * m for m in mult], pairs)

    @classmethod
    def diagonal(cls, weights: WeightProfile, d: int) -> "Assignment":
        """The assignment placing ``d`` balls of ``w_j`` in bin ``j``."""
        values, mult = weights.classes
        return cls(d, values, [d * m for m in mult], _diagonal_bins(mult, d))

    @classmethod
    def single_bin(cls, value: int, d: int) -> "Assignment":
        """One bin holding ``d`` balls of ``value``: the last stage of a
        suffix induction, grown towards the front with :meth:`prepend_bin`."""
        return cls(d, (value,), (d,), [((0, d),)])

    @property
    def m(self) -> int:
        return len(self.class_values)

    @property
    def n(self) -> int:
        return len(self._bins)

    @property
    def counts(self) -> list[list[int]]:
        """Dense view, built on each read: ``counts[c][j]`` balls of class
        ``c`` in bin ``j``."""
        return [[b.get(v, 0) for b in self._bins] for v in self.class_values]

    def count_of(self, value: int, j: int) -> int:
        """Balls of ``value`` in bin ``j`` (0-based); no class of it raises."""
        q = self._bins[j].get(value, 0)
        if not q and value not in self.class_values:
            raise ProfileError(f"no weight class with value {value}")
        return q

    def bin_items(self, j: int):
        """Bin ``j``'s ``(value, count)`` pairs, a read-only live view."""
        return self._bins[j].items()

    def bin_weight(self, j: int) -> int:
        return self._bin_weights[j]

    def apply(self, transfers) -> None:
        """Apply a balanced group of transfers ``(value, count, src, dst)``.

        Bins are 0-based here. The group must name bins of this assignment,
        move ``int`` counts of at least 0 and preserve every bin's
        cardinality; anything else is a programming error in the caller and
        raises. Transfers take effect in order (a ball moved in may move on),
        but the whole group is checked before any count changes, so a
        rejected group leaves the assignment as it was.
        """
        bins, loads = self._bins, self._bin_weights
        staged = []  # the checked transfers
        n = len(bins)
        delta = [0] * n
        for value, q, src, dst in transfers:
            if not (0 <= src < n and 0 <= dst < n):
                raise ProfileError(
                    f"transfer from bin {src + 1} to bin {dst + 1} "
                    f"outside bins 1..{n}"
                )
            if type(q) is not int or q < 0:
                raise ProfileError(
                    f"transfer count must be a non-negative integer, got {q!r}"
                )
            if q == 0:
                continue
            held = bins[src].get(value, 0)
            for v2, q2, src2, dst2 in staged:
                if v2 == value:
                    held += (q2 if dst2 == src else 0) - (q2 if src2 == src else 0)
            if held < q:
                self.count_of(value, src)  # a value of no class raises first
                raise ProfileError(
                    f"bin {src + 1} holds {held} balls of value {value}, "
                    f"cannot move {q}"
                )
            staged.append((value, q, src, dst))
            delta[src] -= q
            delta[dst] += q
        if any(delta):
            raise ProfileError(f"unbalanced transfer group: bin deltas {delta}")
        for value, q, src, dst in staged:
            left = bins[src][value] - q
            if left:
                bins[src][value] = left
            else:
                del bins[src][value]
            bins[dst][value] = bins[dst].get(value, 0) + q
            loads[src] -= value * q
            loads[dst] += value * q

    def prepend_bin(self, value: int) -> None:
        """Insert a new bin 0 holding ``d`` balls of ``value``; the old bins
        become bins ``1..n`` and ``value``'s supply grows by ``d``.

        ``value`` joins the top class when it equals the top value and opens
        a new top class above it when heavier; a lighter value would break
        the non-increasing order of the positions and raises, as does a
        value that is not an ``int``.
        """
        if type(value) is not int:
            raise ProfileError(f"prepended value {value!r} is not an integer")
        top = self.class_values[0]
        if value < top:
            raise ProfileError(
                f"cannot prepend a bin of value {value} before top class {top}"
            )
        supply = self.class_supply
        if value > top:
            self.class_values = (value,) + self.class_values
            self.class_supply = (self.d,) + supply
        else:
            self.class_supply = (supply[0] + self.d,) + supply[1:]
        self._bins.insert(0, {self.class_values[0]: self.d})
        self._bin_weights.insert(0, value * self.d)

    def copy(self) -> "Assignment":
        row = {v: c for c, v in enumerate(self.class_values)}
        bins = [[(row[v], q) for v, q in b.items()] for b in self._bins]
        return Assignment(self.d, self.class_values, self.class_supply, bins)

    def validate(self) -> None:
        """Check the counts from scratch, with the check of the constructor."""
        held = dict.fromkeys(self.class_values, 0)
        low = 1
        for v, q in chain.from_iterable(map(dict.items, self._bins)):
            held[v] += q
            if q < low:
                low = q
        sizes = list(map(sum, map(dict.values, self._bins)))
        self._check(list(held.values()), sizes, low)

    def bin_notation(self, j: int) -> str:
        """Render bin ``j`` in ``value^count`` notation, e.g. ``5^2 3^1``."""
        parts = [f"{v}^{q}" for v, q in sorted(self._bins[j].items(), reverse=True)]
        return " ".join(parts) if parts else "(empty)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return (
            self.d == other.d
            and self.class_values == other.class_values
            and self._bins == other._bins
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
    return min(gap_vector(assignment, capacities)[k:], default=0) >= 0


def d_threshold(w: WeightProfile) -> int:
    """Multiplicity above which the sufficient suffix conditions kick in."""
    n = w.n
    w1 = w.entries[0]
    return n**3 * w1 * (2 * n + w1)
