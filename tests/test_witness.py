"""Tests for the extremal and relaxed infeasibility witness constructions."""

import random
from collections import Counter

import pytest

from hmbp import _search
from hmbp.core import (
    Assignment,
    CapacityProfile,
    Instance,
    ProfileError,
    WeightProfile,
    b_constant,
    gap_vector,
)
from hmbp.oracle import OracleError, decide
from hmbp.witness import (
    UnsupportedWeightsError,
    extremal_capacities,
    extremal_companion,
    extremal_witness,
    relaxed_witness,
    verify_witness,
)

from helpers import (
    CURATED_DELTAS,
    EXPLORATION_PROFILE,
    bins_as_dicts,
    curated_witness,
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
        assert bins_as_dicts(wit.companion) == [
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
            gaps = w.gaps
            expected = (-1,) + tuple(gaps[j - 2] - 1 for j in range(2, w.n + 1))
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
            gaps = w.gaps
            assert delta[0] == -1
            for j in range(2, n + 1):
                assert delta[j - 1] == gaps[j - 2] - 1
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

    @pytest.mark.parametrize(
        "field, value, bounds",
        [
            ("relax_index", 0, "1..4"),
            ("relax_index", 5, "1..4"),
            ("companion_level", -1, "0..4"),
            ("companion_level", 5, "0..4"),
        ],
    )
    def test_indices_checked_at_entry(self, field, value, bounds):
        # relax_index 5 once raised IndexError from the slack row, and 0 read
        # the last suffix's slack before decide refused k = -1.
        wit = extremal_witness(WeightProfile((5, 3, 1, 0)), 6)
        with pytest.raises(ProfileError) as exc:
            verify_witness(wit._replace(**{field: value}))
        assert str(exc.value) == f"{field}={value} out of range {bounds}"
        verify_witness(wit._replace(relax_index=4, companion_level=4))

    def test_oracle_can_be_disabled(self):
        wit = extremal_witness(WeightProfile((3, 1)), 4)
        ver = verify_witness(wit, node_budget=0)
        assert ver.ok and not ver.oracle_backed
        assert all(c.method == "analytic" for c in ver.checks)


def checks_by_name(ver):
    return {c.name: (c.method, c.passed) for c in ver.checks}


class TestCompanion:
    def test_companion_of_other_balls_rejected(self):
        # Weight 100 is no weight of this instance, yet the companion is
        # 2-feasible and not 1-feasible under its capacities.
        wit = relaxed_witness(WeightProfile((4, 2, 1)), 6, 2)
        foreign = Assignment(6, (100, 0), (6, 12), [[(1, 6)], [(0, 6)], [(1, 6)]])
        ver = verify_witness(wit._replace(companion=foreign))
        assert not ver.ok and ver.oracle_backed
        checks = checks_by_name(ver)
        assert checks["companion-level"] == ("analytic", False)
        assert checks["feasible-above-claim"] == ("oracle", True)

    def test_companion_with_too_few_bins_rejected(self):
        # Once a ProfileError from gap_vector; now both companion checks fail.
        wit = extremal_witness(WeightProfile((5, 3, 1, 0)), 6)
        short = extremal_companion(WeightProfile((5, 3, 1)), 6)
        ver = verify_witness(wit._replace(companion=short))
        assert not ver.ok
        checks = checks_by_name(ver)
        assert checks["companion-level"] == ("analytic", False)
        assert checks["companion-gaps"] == ("analytic", False)

    @pytest.mark.parametrize(
        "w, companion",
        [
            (
                (4, 2, 1),
                Assignment(6, (4, 2, 1), (12, 0, 6), [[(0, 6)], [(0, 6)], [(2, 6)]]),
            ),
            (
                (4, 2, 0),
                Assignment(7, (4, 2, 0), (7, 7, 7), [[(0, 7)], [(1, 7)], [(2, 7)]]),
            ),
        ],
        ids=["other-supply", "other-d"],
    )
    def test_companion_of_other_multiplicity_rejected(self, w, companion):
        # Each is 2-feasible and not 1-feasible under the witness capacities.
        wit = relaxed_witness(WeightProfile(w), 6, 2)
        ver = verify_witness(wit._replace(companion=companion))
        assert not ver.ok
        checks = checks_by_name(ver)
        assert checks["companion-level"] == ("analytic", False)
        assert checks["feasible-above-claim"] == ("oracle", True)


def reference_extremal_bins(w, d):
    """The extremal companion's bins as ``{value: count}`` mappings, as they
    were built before companions came from ``(class, count)`` pairs."""
    values, mult = w.classes
    top, second = values[0], values[1]
    h_k = mult[0]
    bins = [{top: d}]
    for _ in range(2, h_k + 1):
        bins.append({top: d - 1, second: 1})
    mixed = {second: d - h_k + 1}
    if h_k > 1:
        mixed[top] = h_k - 1
    bins.append(mixed)
    bins.extend({v: d} for v in w.entries[h_k + 1 :])
    return bins


def reference_companion(wit):
    """The witness's companion built from dicts by ``Assignment.from_bins``."""
    w, d, i0 = wit.weights, wit.instance.d, wit.relax_index
    if wit.construction == "extremal":
        return Assignment.from_bins(w, d, reference_extremal_bins(w, d))
    wt = w.truncate(i0)
    if wit.construction == "relaxed-constant-tail":
        tail = [{wt[0]: d}] * wt.n
    else:
        tail = reference_extremal_bins(wt, d)
    return Assignment.from_bins(w, d, [{v: d} for v in w.entries[: i0 - 1]] + tail)


def seeded_witnesses(rng, count):
    """Extremal and relaxed witnesses at n = 2..60 over four weight shapes:
    distinct, a repeated top block, a constant tail and a zero-weight tail."""
    shapes = ("distinct", "top-block", "constant-tail", "zero-tail")
    for i in range(count):
        shape = shapes[i % len(shapes)]
        n = rng.randint(2, 60)
        head = rng.randint(1, n - 1)  # entries before the block or tail
        if shape == "distinct":
            w = sorted(rng.sample(range(2 * n + 5), n), reverse=True)
            i0s = [rng.randint(1, n)]
        elif shape == "top-block":
            rest = sorted(rng.sample(range(1, 2 * n + 5), n - head), reverse=True)
            w = [rest[0] + rng.randint(1, 3)] * head + rest
            i0s = [rng.randint(head + 1, n)]
        else:
            low = 0 if shape == "zero-tail" else rng.randint(1, 5)
            w = sorted(rng.sample(range(low + 1, low + 2 * n + 5), head), reverse=True)
            w += [low] * (n - head)
            i0s = [head + 1, rng.randint(1, head)]
        d = n + rng.randint(0, 3)
        profile = WeightProfile(tuple(w))
        yield shape, extremal_witness(profile, d)
        for i0 in i0s:
            try:
                yield shape, relaxed_witness(profile, d, i0)
            except UnsupportedWeightsError:
                pass


def test_companions_equal_the_dict_built_reference():
    # Companions are built from (class, count) pairs; the dict-built
    # construction they replace is the reference, and every check
    # verify_witness makes comes out the same on either.
    tally = Counter()
    for shape, wit in seeded_witnesses(random.Random(2025), 240):
        ref = reference_companion(wit)
        comp = wit.companion
        assert comp == ref and comp.class_supply == ref.class_supply, wit
        n = wit.instance.n
        assert [comp.bin_weight(j) for j in range(n)] == [
            ref.bin_weight(j) for j in range(n)
        ]
        budget = 10**6 if n <= 8 else 0  # analytic checks only above n = 8
        assert verify_witness(wit, budget) == verify_witness(
            wit._replace(companion=ref), budget
        ), wit
        tally[shape, wit.construction] += 1
        tally["h_k > 1"] += (
            wit.construction == "extremal" and wit.weights.classes[1][0] > 1
        )
        tally["n >= 50"] += n >= 50
        tally["searched"] += budget > 0
    for seen in [
        ("distinct", "extremal"),
        ("distinct", "relaxed-extremal"),
        ("top-block", "relaxed-extremal"),
        ("constant-tail", "relaxed-constant-tail"),
        ("zero-tail", "relaxed-constant-tail"),
        "h_k > 1",
        "n >= 50",
        "searched",
    ]:
        assert tally[seen] >= 10, (seen, tally)


class TestSearchCount:
    """How many kernel searches one verification makes."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = _search.search_feasible

        def counted(values, supply, caps, d, k, budget):
            calls.append(k)
            return search(values, supply, caps, d, k, budget)

        monkeypatch.setattr(_search, "search_feasible", counted)
        return calls

    def test_companion_settles_feasibility(self, searches):
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        ver = verify_witness(wit)
        assert ver.ok and ver.oracle_backed
        assert searches == [0]
        names = [c.name for c in ver.checks]
        assert names[names.index("companion-level") + 1] == "feasible-above-claim"
        assert checks_by_name(ver)["feasible-above-claim"] == ("analytic", True)

    def test_no_companion_searches_both_claims(self, searches):
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        ver = verify_witness(wit._replace(companion=None))
        assert ver.ok and ver.oracle_backed
        assert searches == [0, 1]
        checks = checks_by_name(ver)
        assert checks["infeasible-at-claim"] == ("oracle", True)
        assert checks["feasible-above-claim"] == ("oracle", True)

    def test_failed_companion_searches_at_level(self, searches):
        # Tampered capacities overfill the companion's bin 2, so it no longer
        # shows 1-feasibility; the oracle still finds the instance 1-feasible.
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        caps = CapacityProfile((30, 29, 21, 7, 7, 0))
        comp = Assignment.from_bins(
            wit.weights, 6,
            [{5: 5, 3: 1}, {5: 6}, {5: 1, 3: 5}, {1: 6}, {1: 6}, {0: 6}],
        )
        ver = verify_witness(
            wit._replace(instance=Instance(6, wit.weights, caps), companion=comp)
        )
        assert searches == [0, 1]
        checks = checks_by_name(ver)
        assert checks["companion-level"] == ("analytic", False)
        assert checks["feasible-above-claim"] == ("oracle", True)

    def test_recorded_claim_needs_no_search(self, searches):
        # The infeasibility claim decided earlier on the same instance is
        # read from its record: still oracle-backed, with no search, and
        # still refused by a budget below the nodes it took.
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        nodes = decide(wit.instance, 0).nodes_explored
        assert searches == [0]
        ver = verify_witness(wit)
        assert ver.ok and ver.oracle_backed
        assert checks_by_name(ver)["infeasible-at-claim"] == ("oracle", True)
        ver = verify_witness(wit, node_budget=nodes - 1)
        assert ver.ok and not ver.oracle_backed
        assert searches == [0]

    def test_constant_tail_has_no_feasibility_claim(self, searches):
        wit = relaxed_witness(WeightProfile((3, 1)), 4, 2)
        assert wit.construction == "relaxed-constant-tail"
        ver = verify_witness(wit)
        assert ver.ok and ver.oracle_backed
        assert searches == [1]
        assert "feasible-above-claim" not in checks_by_name(ver)

    def test_settled_claim_survives_the_budget(self, searches):
        wit = extremal_witness(WeightProfile((5, 5, 3, 1, 1, 0)), 6)
        ver = verify_witness(wit, node_budget=0)
        assert ver.ok and not ver.oracle_backed
        assert checks_by_name(ver)["feasible-above-claim"] == ("analytic", True)
        assert searches == [0]

    def test_negative_budget_is_an_error(self, searches):
        wit = extremal_witness(WeightProfile((3, 1)), 4)
        with pytest.raises(OracleError, match="node_budget=-1 is negative"):
            verify_witness(wit, node_budget=-1)
        assert searches == []


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
