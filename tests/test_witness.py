"""Tests for the extremal and relaxed infeasibility witness constructions."""

import random

import pytest

from hmbp.core import (
    CapacityProfile,
    Instance,
    ProfileError,
    WeightProfile,
    b_constant,
    gap_vector,
    weight_gap_profile,
)
from hmbp.oracle import decide
from hmbp.witness import (
    CURATED_DELTAS,
    EXPLORATION_PROFILE,
    UnsupportedWeightsError,
    curated_witness,
    extremal_capacities,
    extremal_witness,
    relaxed_witness,
    verify_witness,
)


def random_mixed_profile(rng, max_n=6, max_w=6):
    while True:
        n = rng.randint(2, max_n)
        w = tuple(sorted((rng.randint(0, max_w) for _ in range(n)), reverse=True))
        if len(set(w)) >= 2:
            return WeightProfile(w)


class TestExtremal:
    def test_six_bin_construction(self):
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        assert wit.instance.capacities.entries == (29, 29, 21, 7, 7, 0)
        assert wit.companion.bins_as_dicts() == [
            {5: 6},
            {5: 5, 3: 1},
            {5: 1, 3: 5},
            {1: 6},
            {1: 6},
            {0: 6},
        ]
        assert wit.instance.capacities.total == 93

    def test_two_value_family(self):
        for d in (2, 4, 9):
            caps = extremal_capacities(WeightProfile((3, 1)), d)
            assert caps == (3 * d - 1, d + 1)

    def test_delta_row_with_repeats(self):
        w = WeightProfile((6, 6, 4, 4, 4, 0))
        for d in (6, 10):
            caps = extremal_capacities(w, d)
            delta = tuple(caps[j] - d * w[j] for j in range(6))
            assert delta == (-1, -1, 3, 1, 1, 3)

    def test_rejects_constant_and_small_d(self):
        with pytest.raises(ProfileError):
            extremal_witness(WeightProfile((4, 4)), 5)
        with pytest.raises(ProfileError):
            extremal_witness(WeightProfile((3, 2, 1)), 2)

    def test_oracle_backed_verification(self):
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        ver = verify_witness(wit)
        assert ver.ok and ver.oracle_backed
        small = verify_witness(extremal_witness(WeightProfile((3, 1)), 5))
        assert small.ok and small.oracle_backed
        assert {c.name for c in ver.checks} >= {
            "suffix-slack-minus-one",
            "companion-gaps",
            "infeasible-at-claim",
            "feasible-above-claim",
        }

    def test_randomized_soundness(self):
        """Sum identity, monotonicity, companion gaps, and the exact claims."""
        rng = random.Random(101)
        for _ in range(40):
            w = random_mixed_profile(rng)
            d = rng.randint(w.n, w.n + 4)
            wit = extremal_witness(w, d)
            inst = wit.instance
            assert inst.capacities.total == d * w.total + b_constant(w) - 1
            gaps = weight_gap_profile(w)
            expected = (-1,) + tuple(gaps.gap_at(j) - 1 for j in range(2, w.n + 1))
            assert gap_vector(wit.companion, inst.capacities) == expected
            assert decide(inst, 1).feasible
            assert not decide(inst, 0).feasible

    def test_strictly_decreasing_delta_identities(self):
        """With distinct weights the deltas match the weight gaps exactly and
        their strict suffix sums reproduce the truncation constants."""
        rng = random.Random(102)
        for _ in range(30):
            n = rng.randint(2, 6)
            vals = sorted(rng.sample(range(0, 14), n), reverse=True)
            w = WeightProfile(tuple(vals))
            d = rng.randint(n, n + 3)
            caps = extremal_capacities(w, d)
            delta = [caps[j] - d * w[j] for j in range(n)]
            gaps = weight_gap_profile(w)
            assert delta[0] == -1
            for j in range(2, n + 1):
                assert delta[j - 1] == gaps.gap_at(j) - 1
            for i in range(1, n + 1):
                assert sum(delta[i:]) == b_constant(w.truncate(i))

    def test_sorted_run_lengths_satisfy_all_other_conditions(self):
        """When the conjugate run lengths are non-decreasing, the extremal
        profile violates only the full-profile condition."""
        rng = random.Random(103)
        built = 0
        while built < 30:
            k = rng.randint(1, 3)
            heights = sorted(rng.sample(range(1, 7), k), reverse=True)
            lengths = sorted(rng.randint(1, 4) for _ in range(k))
            n = heights[0] + rng.randint(0, 2)  # rows beyond the top height
            cols: list[int] = []
            for h, a in zip(heights, lengths):
                cols.extend([h] * a)
            w = WeightProfile(
                tuple(sum(1 for h in cols if h >= i) for i in range(1, n + 1))
            )
            if len(set(w.entries)) < 2:
                continue
            built += 1
            d = w.n + rng.randint(0, 3)
            caps = extremal_capacities(w, d)
            delta = [caps[j] - d * w[j] for j in range(w.n)]
            for i in range(2, w.n + 1):
                assert sum(delta[i - 1 :]) >= b_constant(w.truncate(i))


class TestRelaxed:
    def test_index_one_equals_extremal(self):
        w = WeightProfile((3, 1))
        wit = relaxed_witness(w, 4, 1)
        assert wit.instance.capacities.entries == (11, 5)
        assert wit.construction == "relaxed-extremal"
        assert verify_witness(wit).ok

    def test_constant_tail_at_last_index(self):
        wit = relaxed_witness(WeightProfile((3, 1)), 4, 2)
        # prefix formula: d*w1 + b + n*w1; tail one short of the diagonal
        assert wit.instance.capacities.entries == (19, 3)
        assert wit.construction == "relaxed-constant-tail"
        assert not decide(wit.instance, 1).feasible
        assert verify_witness(wit).ok

    def test_distinct_tail_with_prefix(self):
        wit = relaxed_witness(WeightProfile((4, 2, 1)), 6, 2)
        inst = wit.instance
        assert inst.capacities.entries[1:] == extremal_capacities(
            WeightProfile((2, 1)), 6
        )
        assert not decide(inst, 1).feasible
        assert decide(inst, 2).feasible
        ver = verify_witness(wit)
        assert ver.ok and ver.oracle_backed

    def test_constant_tail_mid_profile(self):
        wit = relaxed_witness(WeightProfile((5, 3, 2, 2)), 5, 3)
        inst = wit.instance
        assert inst.capacities.entries[2:] == (10, 9)
        assert not decide(inst, 2).feasible

    def test_mixed_repeats_unsupported(self):
        with pytest.raises(UnsupportedWeightsError):
            relaxed_witness(WeightProfile((5, 3, 3, 1)), 6, 2)

    def test_randomized_distinct_claims(self):
        rng = random.Random(104)
        for _ in range(25):
            n = rng.randint(2, 5)
            vals = sorted(rng.sample(range(0, 9), n), reverse=True)
            w = WeightProfile(tuple(vals))
            d = rng.randint(n, n + 3)
            i0 = rng.randint(1, n)
            wit = relaxed_witness(w, d, i0)
            assert not decide(wit.instance, i0 - 1).feasible
            ver = verify_witness(wit)
            assert ver.ok, (w.entries, d, i0, ver.checks)


class TestVerification:
    def test_tampered_capacity_sum_detected(self):
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        caps = list(wit.instance.capacities.entries)
        caps[0] += 2
        tampered = wit.__class__(
            instance=Instance(6, wit.weights, CapacityProfile(tuple(caps))),
            construction=wit.construction,
            relax_index=wit.relax_index,
            companion=wit.companion,
            companion_level=wit.companion_level,
        )
        ver = verify_witness(tampered)
        assert not ver.ok
        failed = {c.name for c in ver.checks if not c.passed}
        assert "suffix-slack-minus-one" in failed

    def test_budget_exhaustion_flags_analytic_only(self):
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        ver = verify_witness(wit, node_budget=3)
        assert ver.ok  # analytic checks still pass
        assert not ver.oracle_backed
        assert all(c.method == "analytic" for c in ver.checks)

    def test_oracle_can_be_disabled(self):
        wit = extremal_witness(WeightProfile((3, 1)), 4)
        ver = verify_witness(wit, node_budget=0)
        assert ver.ok and not ver.oracle_backed
        assert all(c.method == "analytic" for c in ver.checks)


class TestCuratedFixtures:
    def test_curated_profile_infeasible_at_six(self):
        w = WeightProfile((6, 6, 4, 4, 4, 0))
        wit = curated_witness(w, 6)
        delta = tuple(
            wit.instance.capacities[j] - 6 * w[j] for j in range(6)
        )
        assert delta == CURATED_DELTAS[w.entries]
        assert not decide(wit.instance, 0).feasible

    def test_curated_only_misses_full_condition(self):
        w = WeightProfile((6, 6, 4, 4, 4, 0))
        for d in (6, 9):
            inst = curated_witness(w, d).instance
            for i in range(1, 7):
                slack = (
                    sum(inst.capacities[i - 1 :])
                    - d * sum(w[i - 1 :])
                    - b_constant(w.truncate(i))
                )
                if i == 1:
                    assert slack == -1
                else:
                    assert slack >= 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(UnsupportedWeightsError):
            curated_witness(WeightProfile((9, 1)), 9)

    def test_exploration_profile_shape(self):
        w = WeightProfile(EXPLORATION_PROFILE)
        assert len(set(w.entries)) == 4  # three positive values plus zero
