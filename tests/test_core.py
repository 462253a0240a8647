"""Domain type and integer-arithmetic tests for the core module."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmbp.cli import main
from hmbp.core import (
    Assignment,
    CapacityProfile,
    ProfileError,
    WeightProfile,
    b_constant,
    b_row,
    conjugate,
    d_threshold,
    gap_vector,
    is_k_feasible,
    make_instance,
    normalize,
    weight_gap_profile,
)
from hmbp.criteria import classify, tight_profile
from hmbp.witness import extremal_witness, relaxed_witness

from conjugate_reference import b_by_run_overshoot, conjugate_by_columns

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
        assert c.expand() == (5, 3, 3, 2, 2)

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
        expanded = conjugate(w, rows).expand()
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
        gaps = weight_gap_profile(w)
        assert b_constant(w) == sum(g - 1 for g in gaps.gaps)

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
        assert b_row(w) == (7, 6, 9, 6, 3, 0)
        assert b_constant(w) == b_row(w)[0]

    def test_differential_sweep(self):
        rng = random.Random(20261019)
        rows = 0
        for _ in range(3000):
            n = rng.randint(1, 9)
            pool = (0, rng.randint(0, 5), rng.randint(0, 80), rng.randint(0, 80))
            vals = sorted((rng.choice(pool) for _ in range(n)), reverse=True)
            w = WeightProfile(tuple(vals))
            ref = tuple(b_by_run_overshoot(w.truncate(i)) for i in range(1, n + 1))
            assert b_row(w) == ref, w
            rows += n
        assert rows > 10_000

    def test_long_profile_matches_gap_identity(self):
        rng = random.Random(7)
        vals = sorted((rng.randint(0, 10**6) for _ in range(300)), reverse=True)
        w = WeightProfile(tuple(vals))
        row = b_row(w)
        for i in (1, 2, 150, 299, 300):
            wt = w.truncate(i)
            if wt.is_constant():
                assert row[i - 1] == 0
            else:
                assert row[i - 1] == sum(g - 1 for g in weight_gap_profile(wt).gaps)


class TestWeightGaps:
    def test_mixed_profile(self):
        g = weight_gap_profile(EX_WEIGHTS)
        assert g.gaps == (2, 2, 2, 2, 1)
        assert g.second_largest == 3
        assert g.predecessor_of == {3: 5, 1: 3, 0: 1}

    def test_two_values(self):
        g = weight_gap_profile(WeightProfile((3, 1)))
        assert g.gaps == (2,)
        assert g.second_largest == 1
        # cross-check against the correction constant
        assert sum(x - 1 for x in g.gaps) == b_constant(WeightProfile((3, 1)))

    def test_top_block(self):
        g = weight_gap_profile(WeightProfile((5, 5, 5, 1, 0)))
        assert g.gaps == (4, 4, 4, 1)
        assert g.second_largest == 1

    def test_rejects_constant(self):
        with pytest.raises(ProfileError):
            weight_gap_profile(WeightProfile((4, 4, 4)))


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
            Assignment(2, values, supply, [[1, 1], [3, -1]])
        with pytest.raises(ProfileError, match="class 2 holds 3 balls, supply is 2"):
            Assignment(2, values, supply, [[2, 1], [0, 1]])
        with pytest.raises(ProfileError, match="bin 1 holds 3 balls, expected 2"):
            Assignment(2, values, supply, [[1, 1], [2, 0]])

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
                before = a.bins_as_dicts()
                a.prepend_bin(w[j])
                assert_built_from_bins(
                    a, w.truncate(j + 1), d, [{w[j]: d}, *before]
                )


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
