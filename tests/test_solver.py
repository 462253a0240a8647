"""Descent engine tests: exchange ops, matching, gap shrinking, full solve."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import hmbp.oracle
import hmbp.solver
from hmbp.core import (
    Assignment,
    CapacityProfile,
    Instance,
    ProfileError,
    WeightProfile,
    b_constant,
    d_threshold,
    is_k_feasible,
    make_instance,
)
from hmbp.criteria import tight_profile
from hmbp.oracle import decide
from hmbp.solver import (
    KIND_BLOCK,
    KIND_BOOST,
    KIND_CHAIN,
    KIND_CHAIN_EXIT,
    KIND_RELIEF,
    KIND_TOP_EXIT,
    DescentTrace,
    MatchingPermutation,
    Move,
    SolverConfig,
    SolverUsageError,
    StallError,
    Transfer,
    boost_top_count,
    descend,
    find_permutation,
    normalize_suffix,
    relief_swap,
    shrink_gaps,
    solve,
)
from hmbp.witness import extremal_witness

from family import cross_check
from helpers import bins_as_dicts

SIX_W = WeightProfile((5, 5, 3, 1, 1, 0))
SIX_C = CapacityProfile((17, 17, 17, 17, 17, 8))


def six_bin_start():
    return Assignment.from_bins(
        SIX_W,
        6,
        [
            {5: 2, 3: 2, 1: 2},
            {5: 1, 3: 4, 0: 1},
            {5: 3, 1: 2, 0: 1},
            {5: 3, 1: 1, 0: 2},
            {5: 3, 1: 1, 0: 2},
            {1: 6},
        ],
    )


class TestShrinkGapsTraces:
    def test_six_bin_trace_and_result(self):
        """The canonical six-bin run: two chain swaps, then a top exit."""
        a = six_bin_start()
        perm = MatchingPermutation((1, 4, 2, 3, 6, 5))
        moves = []
        shrink_gaps(a, SIX_C, perm, moves)
        steps = [(m.kind, m.i, m.j) for m in moves]
        assert steps == [
            (KIND_CHAIN, 6, 5),
            (KIND_CHAIN, 5, 3),
            (KIND_TOP_EXIT, 3, None),
        ]
        expected = Assignment.from_bins(
            SIX_W,
            6,
            [
                {5: 1, 3: 3, 1: 2},
                {5: 2, 3: 2, 1: 1, 0: 1},
                {5: 3, 1: 2, 0: 1},
                {5: 3, 1: 1, 0: 2},
                {5: 3, 1: 2, 0: 1},
                {3: 1, 1: 4, 0: 1},
            ],
        )
        assert a == expected
        assert is_k_feasible(a, SIX_C, 0)
        assert moves[-1].bin1_weight == 16

    def test_block_swap_trace_and_result(self):
        """Top-block run exercising the multi-ball swap with t = 0."""
        w = WeightProfile((5, 5, 5, 1, 0))
        caps = CapacityProfile((24, 24, 24, 15, 2))
        a = Assignment.from_bins(
            w, 5, [{5: 5}, {5: 4, 0: 1}, {5: 4, 0: 1}, {5: 2, 1: 3}, {1: 2, 0: 3}]
        )
        perm = MatchingPermutation((1, 2, 3, 4, 5))
        moves = []
        shrink_gaps(a, caps, perm, moves)
        steps = [(m.kind, m.i, m.j, m.l, m.t) for m in moves]
        assert steps == [
            (KIND_BLOCK, 2, 4, 5, 0),
            (KIND_BLOCK, 3, 4, 5, 0),
            (KIND_TOP_EXIT, 4, None, None, None),
        ]
        expected = Assignment.from_bins(
            w, 5, [{5: 4, 1: 1}, {5: 4, 1: 1}, {5: 4, 1: 1}, {5: 3, 0: 2}, {1: 2, 0: 3}]
        )
        assert a == expected
        assert a.bin_weight(0) == 21

    def test_no_op_when_gaps_already_small(self):
        w = WeightProfile((3, 1))
        a = Assignment.from_bins(w, 4, [{3: 3, 1: 1}, {3: 1, 1: 3}])
        caps = CapacityProfile((9, 7))  # gap of bin 2 is 1 < its weight gap 3 - 1 = 2
        perm = MatchingPermutation((1, 2))
        moves = []
        shrink_gaps(a, caps, perm, moves)
        assert moves == []
        assert a == Assignment.from_bins(w, 4, [{3: 3, 1: 1}, {3: 1, 1: 3}])

    def test_one_class_assignment_is_refused(self):
        a = Assignment.single_bin(3, 4)
        a.prepend_bin(3)
        caps, perm, moves = CapacityProfile((11, 11)), MatchingPermutation((1, 2)), []
        with pytest.raises(SolverUsageError, match="two weight classes"):
            shrink_gaps(a, caps, perm, moves)
        assert moves == []
        assert a.counts == [[4, 4]]

    def test_swap_counters_within_bounds(self):
        """Per fixed index the chain swap repeats fewer than w1 times, and the
        block condition fires at most once per index with t below w1."""
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(2, 6)
            w = tuple(sorted((rng.randint(0, 5) for _ in range(n)), reverse=True))
            if len(set(w)) < 2:
                continue
            wp = WeightProfile(w)
            d = rng.randint(3, 8)
            a = Assignment.diagonal(wp, d)
            caps = CapacityProfile(
                tuple(
                    sorted(
                        (d * v + rng.randint(0, wp[0]) for v in wp), reverse=True
                    )
                )
            )
            if caps[0] >= a.bin_weight(0):
                continue
            perm_order = [1] + sorted(range(2, n + 1), key=lambda _: rng.random())
            perm = MatchingPermutation(tuple(perm_order))
            try:
                moves = []
                shrink_gaps(a, caps, perm, moves)
            except StallError:
                continue
            chain_by_i = {}
            block_by_i = {}
            for mv in moves:
                if mv.kind == KIND_CHAIN:
                    chain_by_i[mv.i] = chain_by_i.get(mv.i, 0) + 1
                if mv.kind == KIND_BLOCK:
                    block_by_i[mv.i] = block_by_i.get(mv.i, 0) + 1
                    assert mv.t < wp[0]
            assert all(c < wp[0] for c in chain_by_i.values())
            assert all(c == 1 for c in block_by_i.values())
            a.validate()


class TestBoost:
    def test_three_way_exchange_example(self):
        a = Assignment.from_bins(
            SIX_W,
            6,
            [
                {3: 6},
                {5: 3, 1: 2, 0: 1},
                {5: 3, 1: 2, 0: 1},
                {5: 3, 1: 1, 0: 2},
                {5: 3, 1: 1, 0: 2},
                {1: 6},
            ],
        )
        weights_before = [a.bin_weight(j) for j in range(6)]
        moves = []
        boost_top_count(a, 2, moves)
        assert len(moves) == 1
        assert a.bin_notation(0) == "5^2 3^2 1^2"
        assert a.bin_notation(1) == "5^1 3^4 0^1"
        assert [a.bin_weight(j) for j in range(6)] == weights_before
        assert a.counts[0][0] == 2

    def test_identity_when_target_met(self):
        a = six_bin_start()
        moves = []
        boost_top_count(a, 2, moves)
        assert moves == []
        assert a == six_bin_start()

    def test_identity_when_bin1_all_top(self):
        w = WeightProfile((4, 4, 1))
        a = Assignment.from_bins(w, 3, [{4: 3}, {4: 3}, {1: 3}])
        moves = []
        boost_top_count(a, 3, moves)
        assert moves == []

    def test_stall_carries_detail(self):
        w = WeightProfile((3, 1))
        a = Assignment.from_bins(w, 2, [{3: 2}, {1: 2}])
        with pytest.raises(StallError, match="boost"):
            boost_top_count(a, 3, [])

    def test_count_rises_across_random_runs(self):
        rng = random.Random(31)
        for _ in range(40):
            d = rng.randint(6, 12)
            w = WeightProfile((5, 4, 2, 1))
            bins = [{4: d}, {5: d}, {2: d}, {1: d}]
            a = Assignment.from_bins(w, d, bins)
            before = a.counts[0][0]
            try:
                moves = []
                boost_top_count(a, rng.randint(1, d), moves)
            except StallError:
                continue
            assert a.counts[0][0] >= before + len(moves) * 0  # no decrease
            if moves:
                assert a.counts[0][0] > before
            a.validate()


class TestMatching:
    def test_worked_example_yields_valid_permutation(self):
        a = six_bin_start()
        perm = find_permutation(a, 2)
        assert perm.order[0] == 1
        assert sorted(perm.order) == [1, 2, 3, 4, 5, 6]
        for i in range(2, 7):
            assert a.count_of(SIX_W[i - 1], perm.bin_for(i) - 1) >= 2

    def test_rich_assignment_has_matching(self):
        w = WeightProfile((2, 1))
        a = Assignment.from_bins(w, 6, [{2: 3, 1: 3}, {2: 3, 1: 3}])
        perm = find_permutation(a, 3)
        assert perm.order == (1, 2)

    def test_hall_violation_names_deficient_set(self):
        w = WeightProfile((2, 1))
        a = Assignment.from_bins(w, 3, [{2: 2, 1: 1}, {2: 1, 1: 2}])
        with pytest.raises(StallError) as exc:
            find_permutation(a, 3)
        assert exc.value.deficient == (2,)

    def test_permutation_validation(self):
        with pytest.raises(SolverUsageError):
            MatchingPermutation((2, 1))
        with pytest.raises(SolverUsageError):
            MatchingPermutation((1, 3, 3))


class TestReliefSwap:
    def test_basic_swap(self):
        w = WeightProfile((3, 1))
        a = Assignment.from_bins(w, 4, [{3: 4}, {1: 4}])
        caps = CapacityProfile((11, 8))
        move = relief_swap(a, caps, [])
        assert move is not None and move.kind == KIND_RELIEF
        assert a.bin_weight(0) == 10
        assert is_k_feasible(a, caps, 1)

    def test_batch_stops_where_bin1_fits(self):
        w = WeightProfile((3, 1, 1))
        a = Assignment.from_bins(w, 8, [{3: 8}, {1: 8}, {1: 8}])
        caps = CapacityProfile((18, 18, 18))  # excess 6 at step 2: three swaps
        move = relief_swap(a, caps, [], limit=10)
        assert [(tr.value, tr.count) for tr in move.transfers] == [(3, 3), (1, 3)]
        assert move.bin1_weight == a.bin_weight(0) == 18
        assert relief_swap(a, caps, [], limit=10) is None
        with pytest.raises(SolverUsageError):
            relief_swap(a, caps, [], limit=0)

    def test_absent_without_large_gap(self):
        w = WeightProfile((3, 1))
        a = Assignment.from_bins(w, 4, [{3: 4}, {1: 4}])
        caps = CapacityProfile((11, 6))  # gap 2 < w1
        assert relief_swap(a, caps, []) is None

    def test_absent_without_top_ball_in_bin1(self):
        w = WeightProfile((5, 3, 3, 0))
        a = Assignment.from_bins(w, 4, [{3: 4}, {5: 4}, {3: 4}, {0: 4}])
        caps = CapacityProfile((11, 10, 9, 8))
        assert a.bin_weight(0) > caps[0]
        assert relief_swap(a, caps, []) is None

    def test_preserves_one_feasibility_randomized(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            w = tuple(sorted((rng.randint(0, 5) for _ in range(n)), reverse=True))
            wp = WeightProfile(w)
            if len(set(w)) < 2:
                continue
            d = rng.randint(2, 6)
            a = Assignment.diagonal(wp, d)
            # pile top balls into bin 1 against its lightest content
            top = a.class_values[0]
            for j in range(1, n):
                while a.counts[0][j] > 0:
                    light = next(
                        (c for c in range(a.m - 1, 0, -1) if a.counts[c][0] > 0),
                        None,
                    )
                    if light is None:
                        break
                    a.apply(
                        [(top, 1, j, 0), (a.class_values[light], 1, 0, j)]
                    )
            rest_max = max(a.bin_weight(j) for j in range(1, n))
            if a.bin_weight(0) - 1 < rest_max + top:
                continue
            crest = rest_max + top  # guarantees a gap of at least the top weight
            caps = CapacityProfile((a.bin_weight(0) - 1,) + (crest,) * (n - 1))
            assert is_k_feasible(a, caps, 1)
            before = a.bin_weight(0)
            move = relief_swap(a, caps, [])
            if move is None:
                assert a.counts[0][0] == 0 or top == 0
                continue
            hits += 1
            assert a.bin_weight(0) < before
            assert is_k_feasible(a, caps, 1)
            a.validate()
        assert hits > 20


class TestNormalizeSuffix:
    def test_last_stage_fixes_final_bin(self):
        w = WeightProfile((4, 2, 1))
        a = Assignment.from_bins(w, 3, [{4: 2, 1: 1}, {4: 1, 2: 2}, {2: 1, 1: 2}])
        inst = Instance(3, w, CapacityProfile((100, 100, 100)))
        moves = []
        normalize_suffix(inst, 3, a, moves)
        assert bins_as_dicts(a)[2] == {1: 3}
        assert all(m.kind == "normalize" for m in moves)
        a.validate()

    def test_already_normalized_is_untouched(self):
        w = WeightProfile((4, 2, 1))
        a = Assignment.diagonal(w, 5)
        inst = Instance(5, w, CapacityProfile((30, 30, 30)))
        for i in (3, 2, 1):
            moves = []
            normalize_suffix(inst, i, a, moves)
            assert moves == []
        assert a == Assignment.diagonal(w, 5)

    def test_suffix_multiset_and_monotone_weights(self):
        rng = random.Random(51)
        for _ in range(120):
            n = rng.randint(2, 6)
            w = tuple(sorted((rng.randint(0, 5) for _ in range(n)), reverse=True))
            wp = WeightProfile(w)
            d = rng.randint(2, 6)
            a = Assignment.diagonal(wp, d)
            for _ in range(10):
                b1, b2 = rng.randrange(n), rng.randrange(n)
                c1, c2 = rng.randrange(a.m), rng.randrange(a.m)
                if a.counts[c1][b1] > 0 and a.counts[c2][b2] > 0:
                    a.apply(
                        [
                            (a.class_values[c1], 1, b1, b2),
                            (a.class_values[c2], 1, b2, b1),
                        ]
                    )
            i = rng.randint(1, n)
            caps = CapacityProfile(
                tuple(sorted((a.bin_weight(j) + 1 for j in range(n)), reverse=True))
            )
            inst = Instance(d, wp, caps)
            if not is_k_feasible(a, caps, i):
                continue
            before = [a.bin_weight(j) for j in range(n)]
            normalize_suffix(inst, i, a, [])
            # bins i..n now hold exactly the suffix supply
            for c, v in enumerate(a.class_values):
                want = d * sum(1 for x in w[i - 1 :] if x == v)
                assert sum(a.counts[c][j] for j in range(i - 1, n)) == want
            for j in range(i - 1, n):
                assert a.bin_weight(j) <= before[j]
            a.validate()

    def test_rejects_infeasible_prev(self):
        w = WeightProfile((3, 1))
        a = Assignment.from_bins(w, 2, [{1: 2}, {3: 2}])
        inst = Instance(2, w, CapacityProfile((6, 2)))
        with pytest.raises(SolverUsageError, match="not 1-feasible"):
            normalize_suffix(inst, 1, a, [])


class TestDescendAndSolve:
    def test_zero_rounds_when_feasible(self):
        inst = make_instance(2, (2, 1), (10, 10))
        a = Assignment.diagonal(inst.weights, 2)
        assert descend(inst, a, SolverConfig(), []) == 0

    def test_descend_from_canonical_start(self):
        inst = make_instance(6, SIX_W.entries, SIX_C.entries)
        a = six_bin_start()
        rounds = descend(inst, a, SolverConfig(r=2), [])
        assert rounds >= 1
        assert is_k_feasible(a, SIX_C, 0)

    def test_even_split(self):
        result = solve(make_instance(6, (3, 1), (12, 12)), SolverConfig(r=1))
        assert result.status == "feasible"
        assert bins_as_dicts(result.assignment) == [{3: 3, 1: 3}, {3: 3, 1: 3}]

    def test_odd_split(self):
        d = 7
        result = solve(make_instance(d, (3, 1), (2 * d + 1, 2 * d)))
        assert result.status == "feasible"
        assert bins_as_dicts(result.assignment)[0] == {3: 4, 1: 3}

    def test_extremal_stalls_without_fallback(self):
        inst = make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0))
        result = solve(inst, SolverConfig(r=2))
        assert result.status == "indeterminate"
        assert result.stall

    def test_extremal_resolved_by_fallback(self):
        inst = make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0))
        result = solve(inst, SolverConfig(r=2, fallback_to_oracle=True))
        assert result.status == "infeasible"
        assert result.oracle_used

    def test_six_bin_solves_with_defaults(self, monkeypatch):
        # The default r = 2*n*w1 finds no rich bin at d = 6: stage 1 stalls
        # in the matching step and restarts at half r and N until it
        # finishes. The discarded attempts made moves, and the trace still
        # replays to the assignment, so they were undone and left no move.
        attempts, discarded = [], []
        original = hmbp.solver.descend

        def recording_descend(inst, assignment, cfg, log):
            resolved = cfg.resolved(inst)
            attempts.append((inst.n, resolved.r, resolved.N))
            try:
                return original(inst, assignment, cfg, log)
            except StallError:
                discarded.append(len(log))
                raise

        monkeypatch.setattr(hmbp.solver, "descend", recording_descend)
        inst = make_instance(6, SIX_W.entries, SIX_C.entries)
        result = solve(inst)
        assert result.status == "feasible"
        assert not result.oracle_used
        assert [(r, N) for n, r, N in attempts if n == 6] == [
            (60, 1800), (30, 900), (15, 450), (8, 225), (4, 113), (2, 57)
        ]
        assert len(discarded) == 5 and sum(discarded) > 0
        assert result.trace.replay(Assignment.diagonal(SIX_W, 6)) == (
            result.assignment
        )

    def test_fallback_takes_any_size(self):
        # n = 9 bins: the oracle settles the extremal witness at once.
        wit = extremal_witness(WeightProfile((8, 7, 6, 5, 4, 3, 2, 1, 0)), 30)
        result = solve(wit.instance, SolverConfig(fallback_to_oracle=True))
        assert result.status == "infeasible"
        assert result.oracle_used
        assert result.stall

    def test_fallback_refused_by_budget_keeps_the_stall(self, monkeypatch):
        inst = make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0))
        stall = solve(inst).stall

        def refuse(*args):
            raise hmbp.oracle.BudgetExceeded("undecided: node budget exhausted")

        monkeypatch.setattr(hmbp.oracle, "decide", refuse)
        result = solve(inst, SolverConfig(fallback_to_oracle=True))
        assert result.status == "indeterminate"
        assert result.stall == stall
        assert not result.oracle_used

    def test_curated_profile_never_claimed_feasible(self):
        w = (6, 6, 4, 4, 4, 0)
        caps = tuple(6 * v + dd for v, dd in zip(w, (-1, -5, 5, 3, 1, 3)))
        result = solve(make_instance(6, w, caps), SolverConfig(r=2))
        assert result.status == "indeterminate"

    def test_threshold_scale_guarantee_sample(self):
        w = WeightProfile((5, 5, 3, 1, 1, 0))
        d = d_threshold(w)
        inst = Instance(d, w, tight_profile(w, d))
        result = solve(inst)
        assert result.status == "feasible"
        assert is_k_feasible(result.assignment, inst.capacities, 0)

    def test_squeezed_capacities_force_long_descent(self):
        """Capacity shifted from early to late bins keeps every suffix
        condition intact but leaves the head bins short by an amount
        proportional to d; the descent must shed it swap by swap."""
        w = WeightProfile((6, 6, 4, 2, 1, 0))
        d = d_threshold(w)
        base = list(tight_profile(w, d))
        move = (base[0] - base[3]) // 3
        caps = tuple(
            sorted(
                [
                    base[0] - move,
                    base[1] - move // 2,
                    base[2],
                    base[3] + move,
                    base[4] + move // 2,
                    base[5],
                ],
                reverse=True,
            )
        )
        inst = make_instance(d, w.entries, caps)
        result = solve(inst)
        assert result.status == "feasible"
        assert result.rounds > 1000
        assert is_k_feasible(result.assignment, inst.capacities, 0)
        assert result.trace.replay(Assignment.diagonal(w, d)) == result.assignment

    def test_trace_replays_to_final_assignment(self):
        w = WeightProfile((5, 5, 3, 1, 1, 0))
        for d, caps in [
            (6, (17, 17, 17, 17, 17, 8)),
            (24, tight_profile(w, 24).entries),
        ]:
            inst = make_instance(d, w.entries, caps)
            result = solve(inst, SolverConfig(r=2))
            if result.status != "feasible" or result.oracle_used:
                continue
            replayed = result.trace.replay(Assignment.diagonal(w, d))
            assert replayed == result.assignment

    @pytest.mark.parametrize("far", [0, 3])
    def test_replay_refuses_a_bin_outside_the_assignment(self, far):
        # Trace bins are 1-based: bin 0 must not reach the last bin through
        # index -1, and a bin past the end is refused the same way.
        transfers = (Transfer(3, 1, 1, far), Transfer(1, 1, far, 1))
        trace = DescentTrace([Move("chain-swap", transfers, 0)])
        with pytest.raises(ProfileError, match=f"bin {far} outside bins 1..2"):
            trace.replay(Assignment.diagonal(WeightProfile((3, 1)), 2))

    def test_descent_bin1_weight_strictly_decreases(self):
        inst = make_instance(9, (4, 2, 1), tight_profile(WeightProfile((4, 2, 1)), 9).entries)
        a = Assignment.diagonal(inst.weights, 9)
        moves = []
        normalize_suffix(inst, 1, a, moves)
        descend(inst, a, SolverConfig(r=1), moves)
        exits = [
            m.bin1_weight
            for m in moves
            if m.kind in (KIND_RELIEF, KIND_CHAIN_EXIT, KIND_TOP_EXIT)
        ]
        assert exits == sorted(exits, reverse=True)
        assert len(set(exits)) == len(exits)

    def test_solve_feasible_agrees_with_oracle(self):
        rng = random.Random(61)
        agreements = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            w = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
            d = rng.randint(1, 6)
            caps = tuple(
                sorted((d * v + rng.randint(-4, 6) for v in w), reverse=True)
            )
            inst = make_instance(d, w, caps)
            result = solve(inst, SolverConfig(r=2))
            if result.status == "feasible":
                agreements += 1
                assert is_k_feasible(result.assignment, inst.capacities, 0)
                assert decide(inst, 0).feasible
        assert agreements > 100

    def test_serialized_trace_format(self):
        inst = make_instance(6, (3, 1), (12, 12))
        result = solve(inst, SolverConfig(r=1))
        text = result.trace.serialize()
        for line in text.strip().splitlines():
            assert " moves=" in line and " w1=" in line and " stage=" in line

    def test_max_rounds_bound_respected(self):
        inst = make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0))
        result = solve(inst, SolverConfig(r=2, max_rounds=1))
        assert result.status == "indeterminate"

    @pytest.mark.parametrize(
        "max_rounds, rounds, stall",
        [
            (5, 5, "descend: no convergence after 5 rounds"),
            (30, 40, "shrink_gaps: bin 4 holds 0 balls of value 2, step needs 1"),
        ],
    )
    def test_rounds_include_the_stalled_stage(self, max_rounds, rounds, stall):
        # max_rounds=5: stage 2 stalls after one 5-swap relief move.
        # max_rounds=30: stage 2 makes 20 rounds, stage 1 makes 19 relief
        # swaps and one shrink round before stalling.
        inst = make_instance(40, (3, 2, 1, 0), (61, 60, 60, 60))
        result = solve(inst, SolverConfig(r=1, max_rounds=max_rounds))
        assert result.status == "indeterminate"
        assert result.stall == stall
        assert result.rounds == rounds


def _unit_swaps(moves):
    """The trace with every relief move written out as its unit swaps."""
    out = []
    for mv in moves:
        if mv.kind != KIND_RELIEF:
            out.append(mv)
            continue
        give, take = mv.transfers
        unit = (give._replace(count=1), take._replace(count=1))
        step = give.value - take.value
        for left in range(give.count - 1, -1, -1):
            out.append(
                mv._replace(transfers=unit, bin1_weight=mv.bin1_weight + left * step)
            )
    return out


class TestBatchedRelief:
    def test_batched_descent_matches_single_steps(self, monkeypatch):
        rng = random.Random(71)
        cases = []
        for _ in range(150):
            n = rng.randint(2, 6)
            w = tuple(sorted((rng.randint(0, 7) for _ in range(n)), reverse=True))
            d = rng.randint(1, 40)
            if rng.random() < 0.5:
                caps = tuple(
                    sorted((d * v + rng.randint(-4, 6) for v in w), reverse=True)
                )
            else:  # total split evenly: long relief runs in the head bins
                q, r = divmod(d * sum(w) + rng.randint(0, 3 * n), n)
                caps = tuple(q + 1 if j < r else q for j in range(n))
            inst = make_instance(d, w, caps)
            for cfg in (
                SolverConfig(r=2),
                SolverConfig(r=1, max_rounds=rng.randint(1, 30)),
                SolverConfig(),
            ):
                cases.append((inst, cfg))

        def outcomes():
            return [solve(inst, cfg) for inst, cfg in cases]

        batched = outcomes()
        single = hmbp.solver.relief_swap
        monkeypatch.setattr(
            hmbp.solver,
            "relief_swap",
            lambda a, caps, log, *, limit=1: single(a, caps, log),
        )
        reference = outcomes()

        multi = cut_short = 0
        for got, want in zip(batched, reference):
            assert got.status == want.status
            assert got.rounds == want.rounds
            assert got.assignment == want.assignment
            assert got.stall == want.stall
            assert _unit_swaps(got.trace.moves) == want.trace.moves
            counts = [
                mv.transfers[0].count
                for mv in got.trace.moves
                if mv.kind == KIND_RELIEF
            ]
            multi += any(q > 1 for q in counts)
            cut_short += bool(
                got.stall
                and "no convergence" in got.stall
                and got.trace.moves[-1].kind == KIND_RELIEF
                and counts[-1] > 1
            )
        assert multi > 50
        assert cut_short > 0

    @pytest.mark.parametrize(
        "w, rounds, moves",
        [
            ((3, 2, 1, 0), 2107, 3),
            ((5, 5, 3, 1, 1, 0), 25241, 5),
            ((8, 7, 6, 5, 4, 3, 2, 1, 0), 303262, 8),
        ],
    )
    def test_threshold_anchors(self, w, rounds, moves):
        """Balanced capacities at d = d_threshold(w): the descent sheds
        excess load proportional to d in one relief move per stage."""
        wp = WeightProfile(w)
        d = d_threshold(wp)
        n = len(w)
        q, r = divmod(d * sum(w) + b_constant(wp) + 5 * n, n)
        caps = tuple(q + 1 if j < r else q for j in range(n))
        result = solve(make_instance(d, w, caps))
        assert result.status == "feasible"
        assert result.rounds == rounds
        assert len(result.trace) == moves


class TestStageNumbering:
    """Whole-solve pins: trace steps ``i``/``j``/``l`` are local to the
    stage's truncated problem, transfers name full-instance bins."""

    @pytest.mark.parametrize(
        "d, w, C, cfg, status, rounds, stall, trace, counts",
        [
            (
                28,
                (5, 5, 4, 1, 0, 0),
                (140, 139, 111, 29, 2, 1),
                SolverConfig(r=2),
                "feasible",
                2,
                None,
                "chain-swap stage=3 i=4 j=2 moves=0x1:5>4,1x1:4>5 w1=112\n"
                "chain-swap stage=3 i=4 j=2 moves=0x1:5>4,1x1:4>5 w1=112\n"
                "chain-swap stage=3 i=3 j=2 moves=0x1:6>4,1x1:4>6 w1=112\n"
                "chain-exit stage=3 i=3 j=2 moves=4x1:3>4,0x1:4>3 w1=108\n"
                "top-exit stage=2 i=2 moves=5x1:2>3,4x1:3>2 w1=139\n",
                [
                    [28, 27, 1, 0, 0, 0],
                    [0, 1, 26, 1, 0, 0],
                    [0, 0, 0, 25, 2, 1],
                    [0, 0, 1, 2, 26, 27],
                ],
            ),
            (
                18,
                (6, 5, 4, 1, 0),
                (108, 88, 70, 22, 2),
                SolverConfig(r=1),
                "indeterminate",
                2,
                "shrink_gaps: bin 2 holds 0 balls of value 1, step needs 1",
                "relief-swap stage=3 j=2 moves=4x1:3>4,1x1:4>3 w1=69\n"
                "chain-swap stage=2 i=4 j=3 moves=0x1:5>3,1x1:3>5 w1=90\n",
                None,
            ),
            (
                5,
                (5, 4, 4, 3, 3, 2),
                (28, 18, 18, 18, 16, 15),
                SolverConfig(r=1, N=3),
                "feasible",
                3,
                None,
                "relief-swap stage=3 j=4 moves=4x1:3>6,2x1:6>3 w1=18\n"
                "block-swap stage=2 i=2 j=3 l=5 t=1 "
                "moves=3x2:5>6,4x1:6>5,2x1:6>5 w1=20\n"
                "top-exit stage=2 i=2 moves=4x1:2>6,3x1:6>2 w1=19\n"
                "top-exit stage=2 i=2 moves=4x1:2>5,3x1:5>2 w1=18\n",
                [
                    [5, 0, 0, 0, 0, 0],
                    [0, 3, 4, 0, 2, 1],
                    [0, 2, 0, 5, 2, 1],
                    [0, 0, 1, 0, 1, 3],
                ],
            ),
        ],
        ids=["chain-at-stage-3", "stall-at-stage-2", "block-at-stage-2"],
    )
    def test_pinned_solve(self, d, w, C, cfg, status, rounds, stall, trace, counts):
        inst = make_instance(d, w, C)
        result = solve(inst, cfg)
        assert result.status == status
        assert result.rounds == rounds
        assert result.stall == stall
        assert not result.oracle_used
        assert result.trace.serialize() == trace
        if counts is None:
            assert result.assignment is None
        else:
            assert result.assignment.counts == counts
            assert result.trace.replay(Assignment.diagonal(inst.weights, d)) == (
                result.assignment
            )

    def test_each_move_applied_once(self, monkeypatch):
        # Every stage descends on the one working assignment; no move is
        # replayed onto a second copy.
        applied = []
        original = Assignment.apply

        def counting_apply(self, transfers):
            applied.append(1)
            return original(self, transfers)

        monkeypatch.setattr(Assignment, "apply", counting_apply)
        inst = make_instance(5, (5, 4, 4, 3, 3, 2), (28, 18, 18, 18, 16, 15))
        result = solve(inst, SolverConfig(r=1, N=3))
        assert result.feasible
        assert len(applied) == len(result.trace) == 4

    def test_assignment_grown_in_place_and_validated_once(self, monkeypatch):
        # Each stage prepends its bin to the one working assignment; no stage
        # rebuilds it from exported bins, and the sums are checked from
        # scratch once, on the finished assignment.
        built, validated = [], []
        from_bins = Assignment.from_bins.__func__
        validate = Assignment.validate

        def counting_from_bins(cls, *args):
            built.append(1)
            return from_bins(cls, *args)

        def counting_validate(self):
            validated.append(1)
            return validate(self)

        monkeypatch.setattr(Assignment, "from_bins", classmethod(counting_from_bins))
        monkeypatch.setattr(Assignment, "validate", counting_validate)
        inst = make_instance(5, (5, 4, 4, 3, 3, 2), (28, 18, 18, 18, 16, 15))
        result = solve(inst, SolverConfig(r=1, N=3))
        assert result.feasible
        assert (len(built), len(validated)) == (0, 1)


# Whole solves recorded from the solver that rebuilt each stage's assignment
# from exported bins: growing the assignment in place must not change a
# status, a round count, a stall text, a trace line or a final count. The 39
# records whose outcome the stage restart and the uncapped oracle fallback
# changed were re-recorded; no record that ended feasible without the oracle
# changed.
SOLVE_PARITY = Path(__file__).with_name("data") / "solve_parity.json"


def test_solve_replays_parity_fixture():
    records = json.loads(SOLVE_PARITY.read_text(encoding="utf-8"))["records"]
    tally = Counter((r["status"], r["oracle_used"]) for r in records)
    assert tally[("feasible", False)] >= 300
    assert tally[("indeterminate", False)] >= 100
    assert tally[("infeasible", True)] + tally[("feasible", True)] >= 40
    kinds = Counter(
        line.split()[0] for r in records for line in r["trace"].splitlines()
    )
    moved = (KIND_RELIEF, KIND_CHAIN, KIND_CHAIN_EXIT, KIND_BLOCK, KIND_TOP_EXIT)
    assert min(kinds[k] for k in moved) >= 4
    assert kinds[KIND_BOOST] >= 10
    mismatches = []
    for r in records:
        res = solve(make_instance(r["d"], r["w"], r["C"]), SolverConfig(**r["cfg"]))
        got = (
            res.status,
            res.rounds,
            res.stall,
            res.oracle_used,
            res.trace.serialize(),
            None if res.assignment is None else res.assignment.counts,
        )
        want = (
            r["status"],
            r["rounds"],
            r["stall"],
            r["oracle_used"],
            r["trace"],
            r["counts"],
        )
        if got != want:
            mismatches.append(r["key"])
    assert mismatches == []


def _head_loads(initial, moves, head):
    """The load of bin ``head(move)`` right after each of ``moves``, replayed
    from a copy of ``initial``."""
    a = initial.copy()
    loads = []
    for mv in moves:
        a.apply((tr.value, tr.count, tr.src - 1, tr.dst - 1) for tr in mv.transfers)
        loads.append(a.bin_weight(head(mv) - 1))
    return loads


def test_each_move_logs_the_head_load_after_it():
    # normalize_suffix works on the whole assignment, so its head bin is
    # bin 1; a solve logs stage s with full-instance bins, so the head bin of
    # its stage-s moves is bin s. The normalize move below takes bin 1 from
    # 6 to 12.
    w = WeightProfile((4, 2, 1))
    start = Assignment.from_bins(w, 3, [{2: 3}, {4: 3}, {1: 3}])
    a = start.copy()
    moves = []
    normalize_suffix(Instance(3, w, CapacityProfile((12, 12, 3))), 2, a, moves)
    assert [mv.bin1_weight for mv in moves] == [12]
    assert _head_loads(start, moves, lambda mv: 1) == [12]

    records = json.loads(SOLVE_PARITY.read_text(encoding="utf-8"))["records"]
    solves = moved = 0
    for r in records:
        if r["status"] != "feasible":
            continue
        inst = make_instance(r["d"], r["w"], r["C"])
        moves = solve(inst, SolverConfig(**r["cfg"])).trace.moves
        start = Assignment.diagonal(inst.weights, inst.d)
        loads = _head_loads(start, moves, lambda mv: mv.stage)
        assert [mv.bin1_weight for mv in moves] == loads, r["key"]
        solves += 1
        moved += len(moves)
    assert solves == 362
    assert moved >= 1000


def test_family_slice_solver_feasible_is_oracle_feasible():
    # F(w, d) sits far below the threshold, where the default r and N find no
    # rich bin; restarting a stalled stage at half r and N leaves 29 of the
    # 475 oracle-feasible profiles unsolved (377 without the restart).
    tally, faults = cross_check(seed=20261018, per_d=30)
    assert faults == []
    assert tally["oracle-feasible"] == 475
    assert tally["stalled-on-feasible"] == 29
    assert tally["solver-feasible"] >= 400
