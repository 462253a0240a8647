"""Domain type and integer-arithmetic tests for the core module."""

import json
import random
import time
from collections import Counter
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmbp import _search
from hmbp.cli import main
from hmbp.core import (
    Assignment,
    CapacityProfile,
    ProfileError,
    WeightProfile,
    _diagonal_bins,
    b_constant,
    conjugate,
    d_threshold,
    gap_vector,
    is_k_feasible,
    make_instance,
)
from hmbp.criteria import classify, tight_profile
from hmbp.witness import _extremal_bins, extremal_witness, relaxed_witness

from conjugate_reference import b_by_run_overshoot, conjugate_by_columns, expand
from helpers import bins_as_dicts, normalize

PARITY_FIXTURE = Path(__file__).with_name("data") / "kernel_parity.json"
EX_WEIGHTS = WeightProfile((5, 5, 3, 1, 1, 0))
EX_CAPS = CapacityProfile((17, 17, 17, 17, 17, 8))
EX_PARTITION = [
    {5: 1, 3: 3, 1: 2},
    {5: 2, 3: 2, 1: 1, 0: 1},
    {5: 3, 1: 2, 0: 1},
    {5: 3, 1: 1, 0: 2},
    {5: 3, 1: 2, 0: 1},
    {3: 1, 1: 4, 0: 1},
]


def profiles(max_n=8, max_w=10, min_distinct=1):
    """Strategy for non-increasing weight profiles."""
    return (
        st.lists(st.integers(0, max_w), min_size=1, max_size=max_n)
        .map(lambda vs: WeightProfile(tuple(sorted(vs, reverse=True))))
        .filter(lambda w: len(set(w.entries)) >= min_distinct)
    )


class TestProfiles:
    def test_rejects_increasing(self):
        with pytest.raises(ProfileError, match="position 2"):
            WeightProfile((1, 3))
        with pytest.raises(ProfileError):
            CapacityProfile((4, 5))

    def test_rejects_negative_weights(self):
        with pytest.raises(ProfileError):
            WeightProfile((3, -1))

    @pytest.mark.parametrize("entries", [(2.7, 1), ("3", "1"), (3, None)])
    def test_rejects_non_integer_entries(self, entries):
        with pytest.raises(ProfileError, match="entries must be integers"):
            WeightProfile(entries)
        with pytest.raises(ProfileError, match="entries must be integers"):
            CapacityProfile(entries)

    @pytest.mark.parametrize("d", [2.5, 2.0, "2"])
    def test_rejects_non_integer_d(self, d):
        with pytest.raises(ProfileError, match="d must be a positive integer"):
            make_instance(d, (3, 1), (8, 3))

    def test_capacities_may_be_negative(self):
        assert CapacityProfile((3, -1)).entries == (3, -1)

    def test_truncate(self):
        assert EX_WEIGHTS.truncate(3).entries == (3, 1, 1, 0)
        assert WeightProfile((3, 1)).truncate(1).entries == (3, 1)
        assert WeightProfile((6, 6, 4, 4, 4, 0)).truncate(4).entries == (4, 4, 0)
        with pytest.raises(ProfileError):
            EX_WEIGHTS.truncate(7)
        with pytest.raises(ProfileError):
            EX_WEIGHTS.truncate(0)

    @given(profiles(max_n=10), st.lists(st.integers(-20, 20), min_size=1, max_size=10))
    def test_truncate_equals_checked_suffix(self, w, caps):
        # truncate slices without re-running the checks; every suffix must
        # equal the profile the checking constructor builds from it.
        c = CapacityProfile(tuple(sorted(caps, reverse=True)))
        for i in range(1, w.n + 1):
            assert w.truncate(i) == WeightProfile(w.entries[i - 1 :])
            assert type(w.truncate(i).entries) is tuple
        for i in range(1, c.n + 1):
            assert c.truncate(i) == CapacityProfile(c.entries[i - 1 :])
        with pytest.raises(ProfileError, match="out of range"):
            c.truncate(c.n + 1)

    def test_instance_shape_check(self):
        with pytest.raises(ProfileError):
            make_instance(2, (3, 1), (5, 3, 1))
        with pytest.raises(ProfileError):
            make_instance(0, (3, 1), (5, 3))


class TestConjugate:
    def test_two_rows_of_three(self):
        c = conjugate(WeightProfile((3, 3, 0)), 3)
        assert (c.a0, c.runs, c.k) == (0, ((2, 3),), 1)

    def test_mixed_profile(self):
        c = conjugate(EX_WEIGHTS, 6)
        assert c.a0 == 0
        assert c.runs == ((5, 1), (3, 2), (2, 2))
        assert c.k == 3
        assert expand(c) == (5, 3, 3, 2, 2)

    def test_constant_profile_all_full_columns(self):
        c = conjugate(WeightProfile((4, 4, 4)), 3)
        assert (c.a0, c.runs, c.k) == (4, (), 0)

    def test_rows_too_small(self):
        with pytest.raises(ProfileError):
            conjugate(WeightProfile((3, 3, 0)), 1)

    @given(profiles(max_n=7, max_w=8), st.integers(0, 3))
    @settings(max_examples=200)
    def test_expand_and_reconjugate_identity(self, w, extra):
        nonzero = sum(1 for v in w.entries if v > 0)
        rows = nonzero + extra
        if rows == 0:
            rows = 1
        expanded = expand(conjugate(w, rows))
        rebuilt = tuple(
            sum(1 for h in expanded if h >= i) for i in range(1, rows + 1)
        )
        padded = tuple(v for v in w.entries if v > 0) + (0,) * (rows - nonzero)
        assert rebuilt == padded


class TestBConstant:
    @pytest.mark.parametrize(
        "w, expected",
        [
            ((3, 3, 0), 4),
            ((3, 3), 0),
            ((5, 5, 3, 1, 1, 0), 4),
            ((5, 5, 3, 1, 1), 4),
            ((3, 1), 1),
            ((7,), 0),
            ((0, 0, 0), 0),
        ],
    )
    def test_known_values(self, w, expected):
        assert b_constant(WeightProfile(w)) == expected

    def test_truncation_row(self):
        w = WeightProfile((6, 6, 4, 4, 4, 0))
        row = [b_constant(w.truncate(i)) for i in range(1, 7)]
        assert row == [7, 6, 9, 6, 3, 0]

    @given(profiles(max_n=8, max_w=10, min_distinct=2))
    @settings(max_examples=500)
    def test_gap_sum_identity(self, w):
        gaps = w.gaps
        assert b_constant(w) == sum(g - 1 for g in gaps)

    @given(st.lists(st.integers(0, 12), min_size=2, max_size=8, unique=True))
    @settings(max_examples=300)
    def test_strictly_decreasing_closed_form(self, vals):
        w = WeightProfile(tuple(sorted(vals, reverse=True)))
        assert b_constant(w) == w[0] - w[w.n - 1] - w.n + 1

    @given(st.integers(2, 8), st.integers(0, 9), st.data())
    @settings(max_examples=200)
    def test_balanced_profiles_vanish(self, n, start, data):
        steps = data.draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
        entries = [start + sum(steps)]
        for s in reversed(steps):
            entries.append(entries[-1] - s)
        w = WeightProfile(tuple(sorted(entries, reverse=True)))
        for i in range(1, w.n + 1):
            assert b_constant(w.truncate(i)) == 0


class TestAgainstColumnReference:
    """The O(n) forms against the per-column definitions."""

    def test_differential_sweep(self):
        rng = random.Random(20261018)
        calls = 0
        for _ in range(3000):
            n = rng.randint(1, 9)
            # a small pool of values gives repeats, zeros and wide gaps
            pool = (0, rng.randint(0, 5), rng.randint(0, 80), rng.randint(0, 80))
            vals = sorted((rng.choice(pool) for _ in range(n)), reverse=True)
            w = WeightProfile(tuple(vals))
            nonzero = sum(1 for v in vals if v > 0)
            for rows in range(nonzero, n + 4):
                got = conjugate(w, rows)
                ref = conjugate_by_columns(w, rows)
                assert (got.rows, got.a0, got.runs) == (ref.rows, ref.a0, ref.runs)
                calls += 1
            assert b_constant(w) == b_by_run_overshoot(w), w
        assert calls > 15_000

    def test_large_weights_cost_nothing(self, capsys):
        w = WeightProfile((10**6, 5 * 10**5, 1, 0))
        d = 4
        start = time.perf_counter()
        caps = tight_profile(w, d)
        classify(make_instance(d, w, caps))
        extremal_witness(w, d)
        relaxed_witness(w, d, 2)
        assert main(["info", "--w", *map(str, w)]) == 0
        elapsed = time.perf_counter() - start
        assert b_constant(w) == 10**6 - 3
        assert "b by truncation: 999997 499998 0 0" in capsys.readouterr().out
        assert elapsed < 0.1


class TestBRow:
    """The one-pass row of correction constants against the per-column
    reference, truncation by truncation."""

    def test_known_row(self):
        w = WeightProfile((6, 6, 4, 4, 4, 0))
        assert w.b_row == (7, 6, 9, 6, 3, 0)
        assert b_constant(w) == w.b_row[0]

    def test_differential_sweep(self):
        rng = random.Random(20261019)
        rows = 0
        for _ in range(3000):
            n = rng.randint(1, 9)
            pool = (0, rng.randint(0, 5), rng.randint(0, 80), rng.randint(0, 80))
            vals = sorted((rng.choice(pool) for _ in range(n)), reverse=True)
            w = WeightProfile(tuple(vals))
            ref = tuple(b_by_run_overshoot(w.truncate(i)) for i in range(1, n + 1))
            assert w.b_row == ref, w
            rows += n
        assert rows > 10_000

    def test_long_profile_matches_gap_identity(self):
        rng = random.Random(7)
        vals = sorted((rng.randint(0, 10**6) for _ in range(300)), reverse=True)
        w = WeightProfile(tuple(vals))
        row = w.b_row
        for i in (1, 2, 150, 299, 300):
            wt = w.truncate(i)
            if wt.is_constant():
                assert row[i - 1] == 0
            else:
                assert row[i - 1] == sum(g - 1 for g in wt.gaps)


class TestWeightGaps:
    def test_mixed_profile(self):
        g = EX_WEIGHTS.gaps
        assert g == (2, 2, 2, 2, 1)
        assert EX_WEIGHTS.classes[0][1] == 3

    def test_two_values(self):
        g = WeightProfile((3, 1)).gaps
        assert g == (2,)
        assert WeightProfile((3, 1)).classes[0][1] == 1
        # cross-check against the correction constant
        assert sum(x - 1 for x in g) == b_constant(WeightProfile((3, 1)))

    def test_top_block(self):
        g = WeightProfile((5, 5, 5, 1, 0)).gaps
        assert g == (4, 4, 4, 1)
        assert WeightProfile((5, 5, 5, 1, 0)).classes[0][1] == 1

    def test_rejects_constant(self):
        with pytest.raises(ProfileError):
            WeightProfile((4, 4, 4)).gaps

    @given(profiles(max_n=10, max_w=12))
    def test_class_table_matches_definitions(self, w):
        # On the profile and on every suffix truncate builds without running
        # the constructor, against definitions written out per position.
        for i in range(1, w.n + 1):
            wt = w.truncate(i)
            values, mult = wt.classes
            assert wt.classes is wt.classes
            assert all(a > b for a, b in zip(values, values[1:]))
            assert sum(mult) == wt.n
            expanded = tuple(v for v, m in zip(values, mult) for _ in range(m))
            assert expanded == wt.entries
            assert wt == WeightProfile(wt.entries)
            e = wt.entries
            if e[0] == e[-1]:
                continue
            second = max(v for v in e if v < e[0])
            expected = tuple(
                e[0] - second if v == e[0] else min(u for u in e if u > v) - v
                for v in e[1:]
            )
            assert wt.gaps == expected


class TestAssignment:
    def test_from_bins_and_accessors(self):
        a = Assignment.from_bins(EX_WEIGHTS, 6, EX_PARTITION)
        assert a.class_values == (5, 3, 1, 0)
        assert a.class_supply == (12, 6, 12, 6)
        assert a.bin_weight(0) == 16
        assert a.bin_weight(5) == 7
        assert a.count_of(1, 5) == 4
        assert a.bin_notation(1) == "5^2 3^2 1^1 0^1"

    def test_bad_column_sum_rejected(self):
        with pytest.raises(ProfileError):
            Assignment.from_bins(WeightProfile((2, 1)), 2, [{2: 2}, {1: 1}])

    def test_validate_messages(self):
        values, supply = (2, 1), (2, 2)
        with pytest.raises(ProfileError, match="negative count in class 1"):
            Assignment(2, values, supply, [[(0, 1), (1, 3)], [(0, 1), (1, -1)]])
        with pytest.raises(ProfileError, match="class 2 holds 3 balls, supply is 2"):
            Assignment(2, values, supply, [[(0, 2)], [(0, 1), (1, 1)]])
        with pytest.raises(ProfileError, match="bin 1 holds 3 balls, expected 2"):
            Assignment(2, values, supply, [[(0, 1), (1, 2)], [(0, 1)]])

    # Each malformed assignment (values (2, 1), supply (3, 3), d = 2, three
    # bins of (class, count) pairs) with the one error reported: the first
    # offending class, a negative count before its class sum, classes before
    # bins, then the first offending bin.
    BAD_BINS = [
        ([[(0, 4), (1, -1)], [(1, 3)], [(0, -1), (1, 1)]], "negative count in class 0"),
        ([[(0, 5), (1, 1)], [(0, -1), (1, 1)], [(1, 1)]], "negative count in class 0"),
        (
            [[(0, 1), (1, 4)], [(0, 1), (1, -1)], [(0, 1), (1, 1)]],
            "negative count in class 1",
        ),
        (
            [[(0, 1), (1, 2)], [(0, 1), (1, 2)], [(1, -1)]],
            "class 2 holds 2 balls, supply is 3",
        ),
        (
            [[(0, 2), (1, 1)], [(0, 1), (1, 1)], [(0, 1), (1, 1)]],
            "class 2 holds 4 balls, supply is 3",
        ),
        (
            [[(0, 1), (1, 1)], [(0, 2), (1, 1)], [(1, 1)]],
            "bin 2 holds 3 balls, expected 2",
        ),
    ]

    @pytest.mark.parametrize("counts, message", BAD_BINS)
    def test_validate_reports_the_first_error(self, counts, message):
        # The constructor and validate run one check, which raises the first
        # error of the per-bin counts.
        values, supply = (2, 1), (3, 3)
        with pytest.raises(ProfileError) as built:
            Assignment(2, values, supply, counts)
        assert str(built.value) == message
        a = Assignment(2, values, supply, [[(0, 1), (1, 1)]] * 3)
        a.apply([(2, 1, 0, 2), (1, 1, 2, 0)])
        a.validate()
        # The dense view is built on each read: writing to it changes nothing.
        view = a.counts
        view[:] = [[3, 0, 0], [-1, 2, 2]]
        a.validate()
        assert a.counts == [[0, 1, 2], [2, 1, 0]] != view

    def test_pairs_match_a_dense_reference(self):
        # Seeded bins as (class, count) pairs, valid or broken by repeating a
        # class in a bin, zero and negative counts, a ball moved between
        # bins or added to one (wrong bin sizes), or a changed supply (wrong
        # class totals). The constructor raises exactly when the reference
        # check of the netted dense counts finds a fault, with its message,
        # and otherwise holds those counts.
        rng = random.Random(20)
        tally = Counter()
        for _ in range(3000):
            m, n, d = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
            values = tuple(sorted(rng.sample(range(9), m), reverse=True))
            bins = [Counter(rng.choices(range(m), k=d)) for _ in range(n)]
            supply = [sum(b[c] for b in bins) for c in range(m)]
            pairs = [list(b.items()) for b in bins]
            for _ in range(rng.choice([0, 0, 1, 2])):
                j, c = rng.randrange(n), rng.randrange(m)
                kind = rng.choice(
                    ["repeat", "zero", "negative", "move", "add", "supply"]
                )
                if kind == "repeat":
                    q = rng.randint(-1, 2)
                    pairs[j] += [(c, q), (c, -q)]
                elif kind == "zero":
                    pairs[j].append((c, 0))
                elif kind == "negative":
                    pairs[j] += [(c, -1), (rng.randrange(m), 1)]
                elif kind == "move":
                    pairs[j].append((c, -1))
                    pairs[rng.randrange(n)].append((c, 1))
                elif kind == "add":
                    pairs[j].append((c, 1))
                    supply[c] += 1
                else:
                    supply[c] += rng.choice([-1, 1])
            for bin_pairs in pairs:
                rng.shuffle(bin_pairs)
            dense = dense_fill(m, pairs)
            fault = dense_first_fault(d, values, supply, dense)
            if fault is not None:
                with pytest.raises(ProfileError) as got:
                    Assignment(d, values, supply, pairs)
                assert str(got.value) == fault
                tally[fault.split()[0]] += 1
                continue
            a = Assignment(d, values, supply, pairs)
            assert (a.d, a.class_values, a.counts) == (d, values, dense)
            assert a.class_supply == tuple(supply)
            assert [a.bin_weight(j) for j in range(n)] == [
                sum(map(mul, values, column)) for column in zip(*dense)
            ]
            tally["built"] += 1
            tally["built-with-negative-pair"] += any(
                q < 0 for bin_pairs in pairs for _, q in bin_pairs
            )
        for outcome in ("built", "negative", "class", "bin"):
            assert tally[outcome] >= 50, tally
        assert tally["built-with-negative-pair"] >= 50, tally

    def test_pairs_equal_from_bins_and_diagonal(self):
        # Seeded profiles: the diagonal and a shuffle of the balls into bins,
        # given as pairs, equal the builds from values and the diagonal.
        rng = random.Random(28)
        for _ in range(300):
            n, d = rng.randint(1, 8), rng.randint(1, 6)
            entries = sorted((rng.randint(0, 9) for _ in range(n)), reverse=True)
            w = WeightProfile(tuple(entries))
            values, mult = w.classes
            supply = [d * q for q in mult]
            diagonal = [[(values.index(v), d)] for v in w]
            assert Assignment(d, values, supply, diagonal) == Assignment.diagonal(w, d)
            balls = [c for c, q in enumerate(supply) for _ in range(q)]
            rng.shuffle(balls)
            bins = [Counter(balls[j * d : (j + 1) * d]) for j in range(n)]
            built = Assignment(d, values, supply, [list(b.items()) for b in bins])
            want = Assignment.from_bins(
                w, d, [{values[c]: q for c, q in b.items()} for b in bins]
            )
            assert built == want and built.class_supply == want.class_supply
            assert [built.bin_weight(j) for j in range(n)] == [
                want.bin_weight(j) for j in range(n)
            ]

    @pytest.mark.parametrize("c", [-1, 2])
    def test_from_pairs_rejects_unknown_classes(self, c):
        # Class -1 once wrapped round to the last class and built
        # [1^1 | 2^1]; class 2 raised IndexError.
        with pytest.raises(ProfileError) as exc:
            Assignment(1, (2, 1), (1, 1), [[(c, 1)], [(0, 1)]])
        assert str(exc.value) == f"bin 1 holds unknown class {c}"

    @pytest.mark.parametrize("q", [5.5, True, 8.0])
    def test_non_integer_counts_are_refused(self, q):
        # Half a ball once passed: bins of 5.5 + 2.5 balls met every sum.
        # A count must be an int; a bool or a float is refused at once.
        w = WeightProfile((3, 1, 1))
        message = f"bin 1: count {q!r} is not an integer"
        with pytest.raises(ProfileError, match=message):
            Assignment.from_bins(w, 8, [{3: q, 1: 8 - q}, {1: 8 - q, 3: q}, {1: 8}])
        with pytest.raises(ProfileError, match=message):
            Assignment(1, (2, 1), (1, 1), [[(0, q)], [(1, 1)]])

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2.0, (3,), (2,), [[(0, 2)]]), "d 2.0 is not an integer"),
            ((True, (3,), (1,), [[(0, 1)]]), "d True is not an integer"),
            ((2, (3.5,), (2,), [[(0, 2)]]), "class value 3.5 is not an integer"),
            ((1, (1, True), (1, 1), [[(0, 1)], [(1, 1)]]), "class value True is"),
            ((2, (3,), (2.0,), [[(0, 2)]]), "supply 2.0 is not an integer"),
            ((1, (2, 1), (1, False), [[(0, 1)], []]), "supply False is not"),
        ],
        ids=[
            "float-d", "bool-d", "float-value", "bool-value", "float-supply", "bool-supply"
        ],
    )
    def test_non_integer_d_values_and_supplies_are_refused(self, args, message):
        # Assignment(2.0, ...) once built d=2.0, and a supply of 2.0 was kept
        # as given: d, every class value and every supply must be an int.
        with pytest.raises(ProfileError, match=message):
            Assignment(*args)

    @pytest.mark.parametrize("top, value", [(3, 3.5), (3, 3.0), (0, True)])
    def test_prepend_bin_refuses_non_integer_values(self, top, value):
        # single_bin(3, 2).prepend_bin(3.5) once gave [3.5^2 | 3^2].
        a = Assignment.single_bin(top, 2)
        with pytest.raises(ProfileError, match=f"prepended value {value!r} is not"):
            a.prepend_bin(value)
        assert a == Assignment.single_bin(top, 2)
        assert a.class_supply == (2,)

    @pytest.mark.parametrize("q", [0.5, True, 1.0])
    def test_apply_refuses_non_integer_counts(self, q):
        a = Assignment.diagonal(WeightProfile((3, 1)), 2)
        message = f"transfer count must be a non-negative integer, got {q!r}"
        with pytest.raises(ProfileError, match=message):
            a.apply([(3, q, 0, 1), (1, q, 1, 0)])
        assert a == Assignment.diagonal(WeightProfile((3, 1)), 2)
        a.validate()

    def test_unknown_value_rejected(self):
        with pytest.raises(ProfileError):
            Assignment.from_bins(WeightProfile((2, 1)), 1, [{2: 1}, {7: 1}])

    def test_apply_balanced_swap(self):
        a = Assignment.diagonal(WeightProfile((3, 1)), 2)
        a.apply([(3, 1, 0, 1), (1, 1, 1, 0)])
        assert a.bin_weight(0) == 4
        assert a.bin_weight(1) == 4
        a.validate()

    def test_apply_rejects_unbalanced(self):
        a = Assignment.diagonal(WeightProfile((3, 1)), 2)
        with pytest.raises(ProfileError, match="unbalanced"):
            a.apply([(3, 1, 0, 1)])

    def test_apply_rejects_missing_balls(self):
        a = Assignment.diagonal(WeightProfile((3, 1)), 2)
        with pytest.raises(ProfileError, match="cannot move"):
            a.apply([(1, 1, 0, 1), (3, 1, 1, 0)])

    @pytest.mark.parametrize(
        "group, message",
        [
            ([(3, 1, 0, 1)], "unbalanced"),
            ([(3, 1, 0, 1), (1, 5, 1, 0)], "bin 2 holds 2 balls of value 1, cannot"),
            ([(3, 1, 0, 1), (3, 2, 1, 0)], "bin 2 holds 1 balls of value 3, cannot"),
            ([(3, 1, 0, 1), (1, 1, 1, 0), (7, 1, 0, 1)], "no weight class"),
            ([(3, 1, 0, -1), (1, 1, -1, 0)], "to bin 0 outside bins 1..2"),
            ([(3, 1, 0, 1), (1, 1, 2, 0)], "from bin 3 to bin 1 outside bins 1..2"),
        ],
        ids=[
            "unbalanced",
            "missing-balls",
            "moved-in-short",
            "unknown-value",
            "bin-before-first",
            "bin-past-last",
        ],
    )
    def test_rejected_group_leaves_assignment_unchanged(self, group, message):
        a = Assignment.diagonal(WeightProfile((3, 1)), 2)
        before = a.copy()
        with pytest.raises(ProfileError, match=message):
            a.apply(group)
        assert a == before
        assert [a.bin_weight(j) for j in range(a.n)] == [6, 2]
        a.validate()

    def test_apply_moves_a_ball_on_within_one_group(self):
        # Transfers take effect in order: a ball moved into bin 2 may leave it.
        a = Assignment.diagonal(WeightProfile((3, 1)), 2)
        a.apply([(3, 1, 0, 1), (3, 1, 1, 0)])
        assert a == Assignment.diagonal(WeightProfile((3, 1)), 2)

    def test_cached_weights_match_recomputation(self):
        a = Assignment.from_bins(EX_WEIGHTS, 6, EX_PARTITION)
        a.apply([(5, 1, 1, 0), (1, 1, 0, 1)])
        for j in range(a.n):
            recomputed = sum(
                a.class_values[c] * a.counts[c][j] for c in range(a.m)
            )
            assert a.bin_weight(j) == recomputed
        a.validate()


def assert_built_from_bins(a, weights, d, bins):
    """``a`` matches the from-scratch build of ``bins`` in every field."""
    a.validate()
    built = Assignment.from_bins(weights, d, bins)
    assert a == built
    assert a.class_supply == built.class_supply
    assert [a.bin_weight(j) for j in range(a.n)] == [
        built.bin_weight(j) for j in range(built.n)
    ]


class TestPrependBin:
    def test_top_value_joins_top_class(self):
        a = Assignment.from_bins(EX_WEIGHTS, 6, EX_PARTITION)
        a.prepend_bin(5)
        assert a.class_values == (5, 3, 1, 0)
        assert a.class_supply == (18, 6, 12, 6)
        assert (a.n, a.bin_weight(0), a.bin_weight(1)) == (7, 30, 16)
        assert_built_from_bins(
            a, WeightProfile((5, *EX_WEIGHTS)), 6, [{5: 6}, *EX_PARTITION]
        )

    def test_heavier_value_opens_top_class(self):
        a = Assignment.from_bins(EX_WEIGHTS, 6, EX_PARTITION)
        a.prepend_bin(8)
        assert a.class_values == (8, 5, 3, 1, 0)
        assert a.class_supply == (6, 12, 6, 12, 6)
        assert a.counts[0] == [6, 0, 0, 0, 0, 0, 0]
        assert (a.bin_weight(0), a.bin_weight(6)) == (48, 7)
        assert_built_from_bins(
            a, WeightProfile((8, *EX_WEIGHTS)), 6, [{8: 6}, *EX_PARTITION]
        )

    def test_lighter_value_rejected_and_nothing_changes(self):
        a = Assignment.from_bins(EX_WEIGHTS, 6, EX_PARTITION)
        with pytest.raises(ProfileError, match="before top class 5"):
            a.prepend_bin(4)
        assert_built_from_bins(a, EX_WEIGHTS, 6, EX_PARTITION)

    def test_single_bin_grows_to_the_diagonal(self):
        w = WeightProfile((7, 7, 4, 2, 2, 0))
        a = Assignment.single_bin(0, 3)
        assert_built_from_bins(a, WeightProfile((0,)), 3, [{0: 3}])
        for j in range(w.n - 2, -1, -1):
            a.prepend_bin(w[j])
            assert_built_from_bins(a, w.truncate(j + 1), 3, [{v: 3} for v in w[j:]])
        assert a == Assignment.diagonal(w, 3)

    def test_matches_from_bins_between_random_swaps(self):
        # The solver's pattern: swaps among the suffix bins, then a new bin in
        # front; after every prepend the assignment equals the rebuilt one.
        rng = random.Random(81)
        for _ in range(60):
            n = rng.randint(2, 7)
            w = WeightProfile(
                tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
            )
            d = rng.randint(1, 9)
            a = Assignment.single_bin(w[-1], d)
            for j in range(n - 2, -1, -1):
                for _ in range(rng.randint(0, 4) if a.n > 1 else 0):
                    src, dst = rng.sample(range(a.n), 2)
                    give = rng.choice([v for v in a.class_values if a.count_of(v, src)])
                    take = rng.choice([v for v in a.class_values if a.count_of(v, dst)])
                    a.apply([(give, 1, src, dst), (take, 1, dst, src)])
                before = bins_as_dicts(a)
                a.prepend_bin(w[j])
                assert_built_from_bins(
                    a, w.truncate(j + 1), d, [{w[j]: d}, *before]
                )


def dense_fill(m, bins):
    """The ``m x n`` matrix of per-bin ``(class, count)`` pairs, repeated
    classes added up: the reference for the dense view."""
    counts = [[0] * len(bins) for _ in range(m)]
    for j, pairs in enumerate(bins):
        for c, q in pairs:
            counts[c][j] += q
    return counts


def dense_first_fault(d, values, supply, counts):
    """The first fault of the dense matrix ``counts[c][j]``, in the order
    the assignment check documents, or None: by class, heaviest first, a
    negative count or a total other than the supply; then the first bin
    without ``d`` balls."""
    for c, row in enumerate(counts):
        if min(row) < 0:
            return f"negative count in class {c}"
        if sum(row) != supply[c]:
            return f"class {values[c]} holds {sum(row)} balls, supply is {supply[c]}"
    for j, column in enumerate(zip(*counts)):
        if sum(column) != d:
            return f"bin {j + 1} holds {sum(column)} balls, expected {d}"
    return None


def assert_copy_is_independent(a):
    """``a.copy()`` equals ``a`` in every field, and a move and a new bin
    on the copy leave ``a`` as it was."""
    state = a.counts, a.class_supply, [a.bin_weight(j) for j in range(a.n)]
    b = a.copy()
    assert b == a and a == b
    assert (b.counts, b.class_supply, [b.bin_weight(j) for j in range(b.n)]) == state
    give, take = min(b.bin_items(0))[0], min(b.bin_items(b.n - 1))[0]
    b.apply([(give, 1, 0, b.n - 1), (take, 1, b.n - 1, 0)])
    b.prepend_bin(b.class_values[0])
    b.validate()
    assert b != a
    assert (a.counts, a.class_supply, [a.bin_weight(j) for j in range(a.n)]) == state
    a.validate()


class TestDenseView:
    def test_matches_dense_fill_on_witnesses(self):
        # Seeded extremal companions and diagonals, n = 2..60, with a
        # repeated top block and often a tail of zero weights.
        rng = random.Random(26)
        for _ in range(80):
            n = rng.randint(2, 60)
            h = rng.randint(1, n - 1)
            z = rng.choice([0, rng.randint(0, n - h - 1)])
            top = n + rng.randint(1, 50)
            middle = sorted(rng.sample(range(1, top), n - h - z), reverse=True)
            w = WeightProfile((top,) * h + tuple(middle) + (0,) * z)
            d = n + rng.randint(0, 3)
            values, mult = w.classes
            companion = extremal_witness(w, d).companion
            assert companion.counts == dense_fill(len(values), _extremal_bins(w, d))
            assert_copy_is_independent(companion)
            diagonal = Assignment.diagonal(w, d)
            assert diagonal.counts == dense_fill(len(values), _diagonal_bins(mult, d))

    def test_matches_dense_fill_on_parity_witnesses(self):
        # The decide witness of every feasible record of the kernel fixture.
        records = json.loads(PARITY_FIXTURE.read_text(encoding="utf-8"))["records"]
        checked = 0
        for r in records:
            if r["status"] != _search.STATUS_FEASIBLE:
                continue
            call = r["values"], r["supply"], r["caps"], r["d"], r["k"], r["budget"]
            _, bins, _ = _search.search_feasible(*call)
            a = Assignment(r["d"], r["values"], r["supply"], bins)
            assert a.counts == dense_fill(len(r["values"]), bins), r["key"]
            assert_copy_is_independent(a)
            checked += 1
        assert checked >= 100

    def test_matches_dense_fill_after_moves_and_prepends(self):
        # A shadow matrix takes the same seeded moves and new bins, as the
        # dense assignment once did, and the view follows it at every step.
        rng = random.Random(27)
        for _ in range(60):
            n, d = rng.randint(2, 8), rng.randint(1, 6)
            w = sorted((rng.randint(0, 6) for _ in range(n)), reverse=True)
            a = Assignment.single_bin(w[-1], d)
            shadow = [[d]]
            for j in range(n - 2, -1, -1):
                for _ in range(rng.randint(0, 4) if a.n > 1 else 0):
                    src, dst = rng.sample(range(a.n), 2)
                    give = rng.choice([c for c in range(a.m) if shadow[c][src]])
                    take = rng.choice([c for c in range(a.m) if shadow[c][dst]])
                    q = rng.randint(1, min(shadow[give][src], shadow[take][dst]))
                    values = a.class_values
                    a.apply([(values[give], q, src, dst), (values[take], q, dst, src)])
                    shadow[give][src] -= q
                    shadow[give][dst] += q
                    shadow[take][dst] -= q
                    shadow[take][src] += q
                    assert a.counts == shadow
                if w[j] > a.class_values[0]:
                    shadow.insert(0, [0] * a.n)
                for row in shadow:
                    row.insert(0, 0)
                shadow[0][0] = d
                a.prepend_bin(w[j])
                assert a.counts == shadow

    def test_wide_companion_stores_its_nonzeros(self):
        # Stored entries over all bins, not an n x n matrix.
        n = 1920
        a = extremal_witness(WeightProfile(tuple(range(n, 0, -1))), n).companion
        assert sum(len(a.bin_items(j)) for j in range(a.n)) <= 2 * n


class TestGapVector:
    def test_worked_partition(self):
        a = Assignment.from_bins(EX_WEIGHTS, 6, EX_PARTITION)
        assert gap_vector(a, EX_CAPS) == (1, 0, 0, 1, 0, 1)

    def test_extremal_companion(self):
        bins = [{5: 6}, {5: 5, 3: 1}, {5: 1, 3: 5}, {1: 6}, {1: 6}, {0: 6}]
        a = Assignment.from_bins(EX_WEIGHTS, 6, bins)
        caps = CapacityProfile((29, 29, 21, 7, 7, 0))
        assert gap_vector(a, caps) == (-1, 1, 1, 1, 1, 0)

    def test_exact_fit_is_zero(self):
        a = Assignment.diagonal(WeightProfile((4, 2)), 3)
        caps = CapacityProfile((12, 6))
        assert gap_vector(a, caps) == (0, 0)

    @given(profiles(max_n=6, max_w=6), st.integers(1, 5), st.data())
    @settings(max_examples=200)
    def test_total_gap_identity(self, w, d, data):
        caps = CapacityProfile(
            tuple(
                sorted(
                    (
                        data.draw(st.integers(-3, d * (w[0] + 2)))
                        for _ in range(w.n)
                    ),
                    reverse=True,
                )
            )
        )
        a = Assignment.diagonal(w, d)
        gv = gap_vector(a, caps)
        assert sum(gv) == caps.total - d * w.total


class TestKFeasibility:
    def test_worked_partition_fully_feasible(self):
        a = Assignment.from_bins(EX_WEIGHTS, 6, EX_PARTITION)
        assert is_k_feasible(a, EX_CAPS, 0)

    def test_extremal_companion_levels(self):
        bins = [{5: 6}, {5: 5, 3: 1}, {5: 1, 3: 5}, {1: 6}, {1: 6}, {0: 6}]
        a = Assignment.from_bins(EX_WEIGHTS, 6, bins)
        caps = CapacityProfile((29, 29, 21, 7, 7, 0))
        assert is_k_feasible(a, caps, 1)
        assert not is_k_feasible(a, caps, 0)

    def test_k_equal_n_unconstrained(self):
        a = Assignment.diagonal(WeightProfile((9, 9)), 4)
        caps = CapacityProfile((0, 0))
        assert is_k_feasible(a, caps, 2)
        with pytest.raises(ProfileError):
            is_k_feasible(a, caps, 3)


class TestThresholdAndNormalize:
    @pytest.mark.parametrize(
        "w, expected",
        [
            ((5, 5, 3, 1, 1, 0), 18360),
            ((3, 1), 168),
            ((0, 0), 0),
        ],
    )
    def test_threshold_values(self, w, expected):
        assert d_threshold(WeightProfile(w)) == expected

    def test_normalize_shifts(self):
        inst = normalize(make_instance(2, (3, 1), (5, 3)))
        assert inst.weights.entries == (2, 0)
        assert inst.capacities.entries == (3, 1)

    def test_normalize_identity_when_zero(self):
        inst = make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0))
        assert normalize(inst) is inst
