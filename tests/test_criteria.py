"""Suffix criteria and classification tests."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hmbp.core import (
    CapacityProfile,
    Instance,
    WeightProfile,
    d_threshold,
    make_instance,
)
from hmbp.criteria import (
    Feasibility,
    classify,
    suffix_report,
    tight_profile,
)
from hmbp.oracle import decide

from helpers import normalize


def test_two_bin_example_slacks():
    report = suffix_report(make_instance(2, (3, 1), (5, 3)))
    assert report.necessary_slack == (0, 1)
    assert report.first_necessary_violation() is None


def test_violated_sufficient_condition_at_top():
    inst = make_instance(6, (5, 5, 3, 1, 1, 0), (17, 17, 17, 17, 17, 8))
    report = suffix_report(inst)
    assert report.suffix_capacity[0] == 93
    assert report.suffix_demand[0] == 90
    assert report.b_values[0] == 4
    assert report.necessary_slack[0] == 3
    assert report.sufficient_slack[0] == -1
    assert report.first_sufficient_violation() == 1
    assert classify(inst).kind is Feasibility.INDETERMINATE
    # the full problem is in fact feasible, so indeterminate is the honest call
    assert decide(inst, 0).feasible


def test_two_value_thresholds():
    # with weights (3, 1): total capacity needs 4d+1, the small bin needs d
    report = suffix_report(make_instance(5, (3, 1), (11, 10)))
    assert report.suffix_demand == (20, 5)
    assert report.b_values == (1, 0)
    assert report.sufficient_slack == (0, 5)


def test_exact_demand_gives_zero_necessary_slack():
    w = WeightProfile((4, 2, 2, 1))
    d = 3
    caps = CapacityProfile(tuple(d * v for v in w))
    report = suffix_report(Instance(d, w, caps))
    assert all(s == 0 for s in report.necessary_slack)


def test_tight_profile_has_zero_sufficient_slack():
    for w in [(5, 5, 3, 1, 1, 0), (3, 1), (6, 6, 4, 4, 4, 0)]:
        wp = WeightProfile(w)
        for d in (5, 11):
            inst = Instance(d, wp, tight_profile(wp, d))
            report = suffix_report(inst)
            assert all(s >= 0 for s in report.sufficient_slack)
            # suffix sums meet the corrected bound exactly at every index
            for i in range(wp.n):
                assert (
                    report.suffix_capacity[i]
                    == report.suffix_demand[i] + report.b_values[i]
                )


def test_classify_infeasible_when_capacity_short():
    verdict = classify(make_instance(2, (3, 1), (3, 2)))
    assert verdict.kind is Feasibility.INFEASIBLE
    assert verdict.index == 1


def test_classify_guaranteed_at_threshold():
    w = WeightProfile((5, 5, 3, 1, 1, 0))
    d = d_threshold(w)
    inst = Instance(d, w, tight_profile(w, d))
    assert classify(inst).kind is Feasibility.GUARANTEED_FEASIBLE
    # one below threshold is merely indeterminate under the same capacities
    below = Instance(d - 1, w, tight_profile(w, d - 1))
    assert classify(below).kind is Feasibility.INDETERMINATE


def test_constant_weights_decided_for_any_d():
    assert (
        classify(make_instance(2, (4, 4, 4), (9, 9, 8))).kind
        is Feasibility.GUARANTEED_FEASIBLE
    )
    verdict = classify(make_instance(2, (4, 4, 4), (9, 9, 7)))
    assert verdict.kind is Feasibility.INFEASIBLE
    assert verdict.index == 3
    # all-zero weights: feasible precisely when the last capacity is >= 0
    assert (
        classify(make_instance(1, (0, 0), (5, 0))).kind
        is Feasibility.GUARANTEED_FEASIBLE
    )
    assert (
        classify(make_instance(1, (0, 0), (5, -1))).kind is Feasibility.INFEASIBLE
    )


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=6),
    st.integers(1, 8),
    st.data(),
)
@settings(max_examples=300)
def test_report_internal_identity(vals, d, data):
    w = WeightProfile(tuple(sorted(vals, reverse=True)))
    caps = CapacityProfile(
        tuple(
            sorted(
                (data.draw(st.integers(-5, d * 8)) for _ in range(w.n)),
                reverse=True,
            )
        )
    )
    report = suffix_report(Instance(d, w, caps))
    for i in range(w.n):
        assert (
            report.sufficient_slack[i] + report.b_values[i]
            == report.necessary_slack[i]
        )
        assert report.necessary_slack[i] >= report.sufficient_slack[i]


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=6),
    st.integers(1, 8),
    st.data(),
)
@settings(max_examples=200)
def test_reports_invariant_under_normalize(vals, d, data):
    w = WeightProfile(tuple(sorted(vals, reverse=True)))
    caps = CapacityProfile(
        tuple(
            sorted(
                (data.draw(st.integers(0, d * 8)) for _ in range(w.n)),
                reverse=True,
            )
        )
    )
    inst = Instance(d, w, caps)
    before = suffix_report(inst)
    after = suffix_report(normalize(inst))
    assert before.necessary_slack == after.necessary_slack
    assert before.sufficient_slack == after.sufficient_slack


def test_balanced_weights_reports_coincide():
    w = WeightProfile((4, 3, 3, 2, 1, 1))
    report = suffix_report(make_instance(5, (4, 3, 3, 2, 1, 1), tuple(5 * v for v in w)))
    assert report.b_values == (0,) * 6
    assert report.necessary_slack == report.sufficient_slack


def test_balanced_exact_demand_guaranteed_iff_threshold():
    w = WeightProfile((4, 3, 3, 2, 1, 1))
    thr = d_threshold(w)
    at = make_instance(thr, w.entries, tuple(thr * v for v in w))
    assert classify(at).kind is Feasibility.GUARANTEED_FEASIBLE
    below = make_instance(thr - 1, w.entries, tuple((thr - 1) * v for v in w))
    assert classify(below).kind is Feasibility.INDETERMINATE


def test_classify_infeasible_agrees_with_oracle():
    rng = random.Random(11)
    hits = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        w = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        d = rng.randint(1, 5)
        caps = tuple(
            sorted((d * v + rng.randint(-5, 4) for v in w), reverse=True)
        )
        inst = make_instance(d, w, caps)
        verdict = classify(inst)
        if verdict.kind is Feasibility.INFEASIBLE:
            hits += 1
            assert not decide(inst, 0).feasible
        elif verdict.kind is Feasibility.GUARANTEED_FEASIBLE:
            assert decide(inst, 0).feasible
    assert hits > 20  # the generator must actually exercise the branch
