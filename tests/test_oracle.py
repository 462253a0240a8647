"""Exact search tests: paper-derived regressions, reference equivalence,
a W^min fixture beyond the reference's reach, error paths."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import inf
from operator import mul
from pathlib import Path

import pytest

import hmbp
from bruteforce import decide_naive, min_bin1_naive
import kernel_differential
from helpers import normalize
from hmbp import _search
from hmbp.core import (
    ProfileError,
    WeightProfile,
    is_k_feasible,
    make_instance,
)
from hmbp.criteria import classify
from hmbp.oracle import BudgetExceeded, OracleError, decide, min_bin1_weight
from hmbp.witness import extremal_witness, relaxed_witness, verify_witness

SEVEN_DISTINCT = make_instance(
    7, (6, 5, 4, 3, 2, 1, 0), tuple(7 * v + 2 for v in (6, 5, 4, 3, 2, 1, 0))
)

# (w, d, C, W^min or None when not 1-feasible) at n = 5..8, beyond the naive
# reference. Values were recorded from an exhaustive max-packing search of
# bins 2..n, an algorithm independent of the bisection under test.
WMIN_ROWS = [
    ((4, 3, 2, 1, 0), 5, (23, 18, 13, 8, 3), 8),
    ((6, 4, 2, 1, 0), 7, (44, 30, 16, 9, 2), 34),
    ((7, 6, 5, 4, 3), 6, (43, 37, 31, 25, 19), 38),
    ((7, 7, 6, 4, 0), 3, (24, 24, 21, 15, 3), 16),
    ((7, 5, 4, 3, 1), 2, (13, 11, 7, 5, 3), None),
    ((6, 5, 2, 1, 0), 7, (38, 38, 15, 9, 1), 35),
    ((6, 6, 3, 1, 1), 7, (43, 43, 22, 9, 8), 39),
    ((5, 3, 2, 1, 0), 5, (24, 16, 10, 5, 0), 25),
    ((5, 5, 3, 1, 1, 0), 6, (29, 29, 21, 7, 7, 0), 30),
    ((6, 5, 4, 2, 1, 0), 8, (47, 40, 32, 17, 8, 0), 48),
    ((7, 6, 3, 2, 0, 0), 3, (23, 16, 12, 9, 6, 3), 8),
    ((6, 5, 4, 3, 2, 0), 8, (54, 39, 34, 27, 16, 1), 44),
    ((8, 7, 6, 5, 4, 2), 4, (34, 30, 26, 22, 18, 10), 22),
    ((5, 4, 3, 3, 1, 1), 8, (43, 35, 27, 27, 11, 11), 25),
    ((7, 6, 5, 3, 1, 1), 7, (46, 40, 34, 20, 12, 6), None),
    ((4, 4, 3, 3, 2, 1), 7, (31, 31, 25, 24, 15, 8), 19),
    ((8, 5, 3, 1, 1, 0), 7, (48, 39, 25, 11, 10, 4), 37),
    ((7, 6, 5, 4, 3, 2, 1), 9, (66, 57, 48, 39, 30, 21, 12), 45),
    ((9, 6, 5, 4, 3, 1, 0), 6, (56, 38, 32, 26, 20, 8, 2), 42),
    ((9, 8, 7, 6, 5, 4, 3), 2, (21, 19, 17, 15, 13, 11, 9), 6),
    ((5, 4, 3, 3, 2, 2, 0), 3, (16, 15, 14, 8, 6, 3, 1), None),
    ((6, 6, 5, 4, 2, 1, 0), 7, (43, 40, 33, 27, 20, 5, 4), 39),
    ((6, 6, 4, 3, 3, 2, 0), 6, (38, 38, 28, 22, 21, 14, 4), 19),
    ((7, 6, 6, 5, 2, 2, 0), 8, (52, 51, 51, 43, 20, 20, 1), 39),
    ((7, 6, 6, 4, 3, 3, 1, 0), 5, (41, 35, 33, 21, 19, 14, 11, 5), 15),
    ((7, 6, 5, 4, 4, 4, 2, 0), 5, (34, 34, 30, 25, 21, 17, 8, 6), 20),
    ((7, 5, 2, 2, 1, 1, 1, 0), 5, (37, 27, 12, 12, 7, 7, 7, 2), 21),
    ((7, 7, 5, 4, 4, 2, 2, 2), 8, (59, 56, 38, 33, 32, 16, 14, 14), None),
    ((7, 6, 6, 5, 4, 4, 3, 2), 8, (62, 50, 48, 41, 38, 32, 22, 21), 44),
    ((6, 6, 5, 4, 3, 2, 2, 1), 4, (26, 26, 21, 20, 14, 11, 11, 5), 10),
    ((7, 5, 3, 2, 1, 1, 1, 0), 3, (16, 16, 12, 7, 7, 5, 4, 2), 7),
    ((7, 7, 3, 1, 1, 0, 0, 0), 4, (31, 31, 15, 7, 7, 3, 3, 3), 10),
]


def small_instances(rng, count, max_n=4, max_w=4, max_d=3, cap_spread=(-3, 5)):
    for _ in range(count):
        n = rng.randint(1, max_n)
        w = tuple(sorted((rng.randint(0, max_w) for _ in range(n)), reverse=True))
        d = rng.randint(1, max_d)
        caps = tuple(
            sorted((d * v + rng.randint(*cap_spread) for v in w), reverse=True)
        )
        yield make_instance(d, w, caps)


class TestPaperRegressions:
    def test_six_bin_instance_feasible(self):
        inst = make_instance(6, (5, 5, 3, 1, 1, 0), (17, 17, 17, 17, 17, 8))
        res = decide(inst, 0)
        assert res.feasible
        assert is_k_feasible(res.witness, inst.capacities, 0)

    def test_two_bin_instance_infeasible(self):
        assert not decide(make_instance(2, (3, 1), (5, 3)), 0).feasible

    @pytest.mark.parametrize("d", range(1, 9))
    def test_even_split_family(self, d):
        inst = make_instance(d, (3, 1), (2 * d, 2 * d))
        assert decide(inst, 0).feasible == (d % 2 == 0)

    def test_extremal_instance_levels(self):
        inst = make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0))
        assert decide(inst, 1).feasible
        assert not decide(inst, 0).feasible

    def test_min_bin1_values(self):
        assert min_bin1_weight(make_instance(2, (3, 1), (5, 3))) == 6
        extremal = make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0))
        assert min_bin1_weight(extremal) == 30
        # constant weights: every bin carries exactly d equal balls
        assert min_bin1_weight(make_instance(4, (2, 2, 2), (9, 9, 8))) == 8


class TestAgainstNaiveReference:
    def test_decisions_match(self):
        rng = random.Random(5)
        for inst in small_instances(rng, 250):
            k = rng.randint(0, inst.n)
            assert decide(inst, k).feasible == decide_naive(inst, k), inst

    def test_min_bin1_matches(self):
        rng = random.Random(6)
        for inst in small_instances(rng, 200):
            expected = min_bin1_naive(inst)
            if expected is None:
                with pytest.raises(OracleError):
                    min_bin1_weight(inst)
            else:
                assert min_bin1_weight(inst) == expected, inst


@pytest.mark.parametrize("w, d, caps, expected", WMIN_ROWS)
def test_min_bin1_fixture(w, d, caps, expected):
    inst = make_instance(d, w, caps)
    if expected is None:
        with pytest.raises(OracleError, match="not 1-feasible"):
            min_bin1_weight(inst)
    else:
        assert min_bin1_weight(inst) == expected


# Kernel calls recorded from the recursive kernel that the explicit-stack loop
# replaced: the node budget is a user-facing contract, so status, node count
# and chosen bins must stay exactly as recorded.
PARITY_FIXTURE = Path(__file__).with_name("data") / "kernel_parity.json"


def test_kernel_replays_parity_fixture():
    records = json.loads(PARITY_FIXTURE.read_text(encoding="utf-8"))["records"]
    tally = Counter((r["group"], r["status"]) for r in records)
    assert tally[("scale-wide", _search.STATUS_FEASIBLE)] == 48
    assert tally[("wmin-probes", _search.STATUS_INFEASIBLE)] >= 50
    assert tally[("random-small", _search.STATUS_BUDGET)] >= 40
    mismatches = []
    for r in records:
        expected = None
        if r["chosen"] is not None:
            expected = {
                j: tuple((c, x) for c, x in pairs) for j, pairs in r["chosen"]
            }
        status, bins, nodes = _search.search_feasible(
            r["values"], r["supply"], r["caps"], r["d"], r["k"], r["budget"]
        )
        if bins is not None:  # the recorded bins are the constrained ones
            bins = {j: bins[j] for j in range(r["k"], len(r["caps"]))}
        if (status, bins, nodes) != (r["status"], expected, r["nodes"]):
            mismatches.append(r["key"])
    assert mismatches == []


def test_free_bins_take_the_leftover_supply():
    # Bins 0..k-1 of a feasible answer hold exactly the supply that bins
    # k..n-1 leave, d balls each, classes ascending.
    records = json.loads(PARITY_FIXTURE.read_text(encoding="utf-8"))["records"]
    checked = 0
    for r in records:
        if r["status"] != _search.STATUS_FEASIBLE or r["k"] == 0:
            continue
        _, bins, _ = _search.search_feasible(
            r["values"], r["supply"], r["caps"], r["d"], r["k"], r["budget"]
        )
        left = Counter(dict(enumerate(r["supply"])))
        for pairs in bins[r["k"]:]:
            left.subtract(dict(pairs))
        free = Counter()
        for pairs in bins[: r["k"]]:
            assert [c for c, _ in pairs] == sorted({c for c, _ in pairs})
            assert sum(x for _, x in pairs) == r["d"]
            free.update(dict(pairs))
        assert left == free, r["key"]
        checked += 1
    assert checked >= 300


@pytest.mark.parametrize(
    "d, w, caps, k, witness, nodes",
    [
        (
            6, (5, 5, 3, 1, 1, 0), (17, 17, 17, 17, 17, 8), 1,
            "[5^1 3^3 1^2 | 5^2 3^1 1^3 | 5^2 3^1 1^3 | 5^3 1^2 0^1"
            " | 5^3 1^2 0^1 | 5^1 3^1 0^4]",
            29,
        ),
        (2, (3, 1), (6, 2), 2, "[3^2 | 1^2]", 0),
    ],
    ids=["six-bin-k1", "all-free"],
)
def test_free_bins_are_filled_heaviest_first(d, w, caps, k, witness, nodes):
    # The free bins take the leftover balls heaviest class first, from bin 1.
    res = decide(make_instance(d, w, caps), k)
    assert repr(res.witness) == f"Assignment(d={d}, {witness})"
    assert res.nodes_explored == nodes


@pytest.mark.parametrize(
    "argv",
    [
        ["--calls", "200"],
        ["--calls", "40", "--wide"],
        ["--calls", "12", "--near-tight"],
    ],
    ids=["narrow", "wide", "near-tight"],
)
def test_kernel_differential_runs_against_this_kernel(argv, capsys):
    # Keeps the differential script working: this tree's kernel against its
    # own source file must agree on every call and meet all three statuses.
    code = kernel_differential.main([_search.__file__, *argv])
    out = capsys.readouterr().out
    assert code == 0
    assert " 0 mismatches;" in out
    for status in ("infeasible", "feasible", "budget"):
        assert f"'{status}':" in out


SIXTY_W = tuple(range(60, 0, -1))
SIXTY = make_instance(60, SIXTY_W, tuple(60 * v + 1 for v in SIXTY_W))


class TestSearchDepth:
    # The search's Python stack depth must not grow with n*m: a recursive
    # search of 60 bins of 60 classes exceeds the default recursion limit.
    def test_sixty_bins_at_default_limit(self):
        res = decide(SIXTY, 0)
        assert res.feasible and res.nodes_explored == 2011
        assert is_k_feasible(res.witness, SIXTY.capacities, 0)

    def test_sixty_bins_under_a_low_recursion_limit(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            res = decide(SIXTY, 0)
        finally:
            sys.setrecursionlimit(old)
        assert res.feasible and res.nodes_explored == 2011


class TestSearchCost:
    def test_bisects_per_node(self, monkeypatch):
        # Each class count's upper end is solved over table segments, a run
        # of zero counts is crossed in one step, and the bin-entry window
        # check walks the table forward: at most one bisection per node,
        # where the per-class loop took about two.
        calls = []
        bisect_left = _search.bisect_left

        def counted(*args):
            calls.append(1)
            return bisect_left(*args)

        monkeypatch.setattr(_search, "bisect_left", counted)
        res = decide(SIXTY, 0)
        assert res.feasible and res.nodes_explored == 2011
        assert len(calls) <= res.nodes_explored

    def test_zero_runs_skip_top_count(self, monkeypatch):
        # Most choose nodes of the 60-bin search set a class count to 0; they
        # are crossed in runs without solving each class's top count, which
        # the per-class loop did at 1,890 of 2,011 nodes.
        calls = []
        top_count = _search._top_count

        def counted(*args):
            calls.append(1)
            return top_count(*args)

        monkeypatch.setattr(_search, "_top_count", counted)
        res = decide(SIXTY, 0)
        assert res.feasible and res.nodes_explored == 2011
        assert len(calls) < res.nodes_explored // 4

    def test_table_skips_empty_light_classes(self, monkeypatch):
        # Bin entry builds its table from the lightest class that still
        # holds balls, and only until it holds the bin's d balls: each table
        # is a prefix of the full one. A full build loops over all 60
        # classes at each of the 60 entries, 3,600 in total; building from
        # the lightest live class to the top looped over 1,890.
        looped = []
        light_table = _search._light_table

        def counted(values, residual, low, q):
            table = light_table(values, residual, low, q)
            full = light_table(values, residual, 0, sum(residual) + 1)
            assert table == (full[0][: len(table[0])], full[1][: len(table[0])])
            assert table[0][-1] >= q > table[0][-2]
            looped.append(len(table[0]) - low - 1)
            return table

        monkeypatch.setattr(_search, "_light_table", counted)
        res = decide(SIXTY, 0)
        assert res.feasible and res.nodes_explored == 2011
        assert len(looped) == 60 and sum(looped) == 120

    def test_chained_floors_skip_most_window_walks(self, monkeypatch):
        # The floors chained down the search path from the suffix minima of
        # the last walk prove every window of 46 of the 60 bin entries; only
        # the other 14 walk them.
        walks = []
        least_slack = _search._least_slack

        def counted(*args):
            walks.append(1)
            return least_slack(*args)

        monkeypatch.setattr(_search, "_least_slack", counted)
        res = decide(SIXTY, 0)
        assert res.feasible and res.nodes_explored == 2011
        assert len(walks) == 14


class MemoKeys:
    """Counts the memo keys the kernel builds, ``tuple(residual)`` calls
    seen through the name ``tuple`` in its globals, and the lookups that
    find an equal key."""

    def __init__(self, monkeypatch):
        self.built = self.hits = 0
        counter = self

        class Key(tuple):
            __hash__ = tuple.__hash__

            def __eq__(self, other):
                equal = tuple.__eq__(self, other)
                if equal is True:
                    counter.hits += 1
                return equal

        def counted(iterable=()):
            # The residual is the kernel's only list of ints it makes a
            # tuple of; the answer's pairs are lists of tuples.
            if type(iterable) is list and all(type(x) is int for x in iterable):
                counter.built += 1
                return Key(iterable)
            return tuple(iterable)

        monkeypatch.setattr(_search, "tuple", counted, raising=False)


SEEDED_60 = WeightProfile(
    tuple(sorted(random.Random(0).sample(range(120), 60), reverse=True))
)


class TestMemoKeys:
    # A search that fails with no choice left open returns at once: it
    # unwinds nothing and builds no memo key, where unwinding would add one
    # key per bin that no lookup ever reads.
    @pytest.mark.parametrize(
        "wit, nodes",
        [
            (extremal_witness(SEEDED_60, 62), 1948),
            (relaxed_witness(SEEDED_60, 62, 14), 1801),
        ],
        ids=["extremal-k0", "relaxed-at-claim"],
    )
    def test_failed_wide_search_builds_no_key(self, monkeypatch, wit, nodes):
        keys = MemoKeys(monkeypatch)
        res = decide(wit.instance, wit.relax_index - 1)
        assert not res.feasible and res.nodes_explored == nodes
        assert keys.built == 0 and keys.hits == 0

    def test_open_choices_still_hit_the_memo(self, monkeypatch):
        # This search backtracks through open choices and meets a failed
        # residual again: the memo answers it. The bins that fail once no
        # choice is open add no key.
        keys = MemoKeys(monkeypatch)
        inst = make_instance(18, (13, 12, 10, 7, 6), (231, 217, 181, 127, 109))
        res = decide(inst, 0)
        assert not res.feasible and res.nodes_explored == 24
        assert keys.built == 4 and keys.hits == 1


def test_budget_cut_off_on_every_budget():
    # A budget that runs out inside a run of zero counts must stop the search
    # exactly where counting one node per class would: at budget + 1 nodes.
    w = tuple(range(40, 0, -2))
    d = 20
    args = (w, [d] * len(w), tuple(d * v + 1 for v in w), d, 0)
    full = _search.search_feasible(*args, 10**9)
    assert full[0] == _search.STATUS_FEASIBLE and full[2] == 251
    for budget in range(full[2] + 3):
        expected = (
            (_search.STATUS_BUDGET, None, budget + 1) if budget < full[2] else full
        )
        assert _search.search_feasible(*args, budget) == expected, budget


def lightest_balls(values, residual, c):
    """Balls of the classes lighter than ``c``, lightest first."""
    return [
        values[cls]
        for cls in range(len(values) - 1, c, -1)
        for _ in range(residual[cls])
    ]


def naive_top(values, residual, c, d_left, cap_left, lo, hi):
    """Scan x from hi down; x fits when its d_left - x lightest balls fit."""
    light = lightest_balls(values, residual, c)
    for x in range(hi, lo - 1, -1):
        if cap_left - x * values[c] >= sum(light[: d_left - x]):
            return x
    return lo - 1


def test_top_count_matches_naive_scan():
    rng = random.Random(81)
    tally = Counter()
    for _ in range(500):
        m = rng.randint(1, 6)
        values = sorted(rng.sample(range(rng.choice([8, 40])), m), reverse=True)
        residual = [
            rng.choice([0, rng.randint(1, 4), rng.randint(1, 150)]) for _ in range(m)
        ]
        # Asked for one ball more than the residual holds: every class.
        counts, weights = _search._light_table(values, residual, 0, sum(residual) + 1)
        c = rng.randrange(m if rng.random() < 0.2 else max(m - 1, 1))
        v = values[c]
        d_left = rng.randint(1, rng.choice([6, 300]))
        # As in the kernel, the completion of every count in [lo, hi] fits
        # in the classes lighter than c.
        lo = max(d_left - counts[m - c - 1], rng.choice([0, 0, rng.randint(0, d_left)]))
        hi = lo - rng.randint(1, 2) if rng.random() < 0.15 else rng.randint(lo, d_left)
        if rng.random() < 0.4 or hi < lo:
            cap_left = rng.randint(-5, d_left * v + 20)
        else:  # near the load of some count in the range
            x = rng.randint(lo, hi)
            light = lightest_balls(values, residual, c)
            cap_left = x * v + sum(light[: d_left - x]) + rng.randint(-v, v)
        got = _search._top_count(values, counts, weights, v, d_left, cap_left, lo, hi)
        assert got == naive_top(values, residual, c, d_left, cap_left, lo, hi), (
            values, residual, c, d_left, cap_left, lo, hi
        )
        tally["hi<lo" if hi < lo else "lo==hi" if hi == lo else "range"] += 1
        tally["none" if got == lo - 1 else "top"] += 1
        if lo < got < hi:
            tally["inner"] += 1
        if values[-1] == 0 and c < m - 1 and residual[-1] > 0:
            tally["zero-weight"] += 1
        if d_left >= 100:
            tally["hundreds"] += 1
    # Every case above, including all counts failing and an inner top.
    assert len(tally) == 8 and min(tally.values()) >= 30


def test_trimmed_light_table_matches_full_build():
    rng = random.Random(23)
    for _ in range(300):
        m = rng.randint(1, 12)
        values = sorted(rng.sample(range(rng.choice([m, 50])), m), reverse=True)
        live = rng.randint(1, m)
        residual = [rng.choice([0, rng.randint(1, 9)]) for _ in range(live)]
        residual[rng.randrange(live)] = rng.randint(1, 9)
        residual += [0] * (m - live)
        low = m - max(c for c in range(m) if residual[c]) - 1
        full = ([0], [0])
        for c in range(m - 1, -1, -1):
            full[0].append(full[0][-1] + residual[c])
            full[1].append(full[1][-1] + residual[c] * values[c])
        for trim in range(low + 1):
            table = _search._light_table(values, residual, trim, sum(residual) + 1)
            assert table == full, (values, residual, trim)


def windows_fit(values, supply, caps, d, k):
    """Every window of the last ``L`` bins, ``L = 1..n-k``, holds the lightest
    ``d*L`` balls of the supply."""
    balls = sorted(v for v, count in zip(values, supply) for _ in range(count))
    n = len(caps)
    return all(
        sum(caps[n - length :]) >= sum(balls[: d * length])
        for length in range(1, n - k + 1)
    )


def window_slack(values, residual, caps, d, j, length):
    """Slack of the window of bins ``j, j-1, ..., j-length+1``: their room
    less the weight of the ``d*length`` lightest balls of ``residual``."""
    room = sum(caps[j - length + 1 : j + 1])
    return room - sum(lightest_balls(values, residual, -1)[: d * length])


def test_slack_bound_holds_for_every_fill():
    # Whatever d balls bin j takes, each window of the bins below it keeps
    # f_{j-1}(L) >= f_j(L+1) - f_j(1), the bound the kernel carries down
    # the search path in place of walking the windows.
    rng = random.Random(19)
    tally = Counter()
    for _ in range(2000):
        m = rng.randint(1, 6)
        values = sorted(rng.sample(range(rng.choice([m, 12])), m), reverse=True)
        d = rng.randint(1, 4)
        n = rng.randint(2, 8)
        k = rng.randint(0, n - 2)
        j = rng.randint(k + 1, n - 1)
        # Bin j's entry residual holds d balls for each of bins 0..j.
        cuts = sorted(rng.randint(0, d * (j + 1)) for _ in range(m - 1))
        residual = [b - a for a, b in zip([0] + cuts, cuts + [d * (j + 1)])]
        mean = sum(map(mul, values, residual)) // (j + 1)
        caps = [mean + rng.randint(-d * 3, d * 3) for _ in range(n)]
        if rng.random() < 0.5:
            caps.sort(reverse=True)
        tally["sorted" if caps == sorted(caps, reverse=True) else "unsorted"] += 1
        balls = [c for c in range(m) for _ in range(residual[c])]
        fill = rng.choice(
            [rng.sample(balls, d), balls[-d:], balls[:d]]  # any, lightest, heaviest
        )
        after = residual[:]
        for c in fill:
            after[c] -= 1
        base = window_slack(values, residual, caps, d, j, 1)
        for length in range(1, j - k + 1):
            bound = window_slack(values, residual, caps, d, j, length + 1) - base
            slack = window_slack(values, after, caps, d, j - 1, length)
            assert slack >= bound, (values, residual, caps, d, j, length, fill)
            tally["equal" if slack == bound else "strict"] += 1
        tally["k>0" if k else "k=0"] += 1
    assert min(tally.values()) >= 500, tally


def test_chained_floor_holds_along_every_path():
    # Below the last walked bin w, every window of bin j keeps
    # f_j(L) >= f_w(L + w - j) - (f_{j+1}(1) + ... + f_w(1)), whatever d
    # balls bins w..j+1 took and in any capacity order. _least_slack returns
    # the suffix minima of f_w, and bin j skips its walk when the entry for
    # windows reaching below it, less that sum, is not negative.
    rng = random.Random(37)
    tally = Counter()
    for _ in range(2000):
        m = rng.randint(1, 6)
        values = sorted(rng.sample(range(rng.choice([m, 12])), m), reverse=True)
        d = rng.randint(1, 4)
        fills = rng.randint(1, 4)
        n = rng.randint(fills + 1, fills + 6)
        k = rng.randint(0, n - fills - 1)
        w = rng.randint(k + fills, n - 1)
        # Bin w's entry residual holds d balls for each of bins 0..w.
        cuts = sorted(rng.randint(0, d * (w + 1)) for _ in range(m - 1))
        residual = [b - a for a, b in zip([0] + cuts, cuts + [d * (w + 1)])]
        mean = sum(map(mul, values, residual)) // (w + 1)
        caps = [mean + rng.randint(-d * 3, d * 3) for _ in range(n)]
        if rng.random() < 0.5:
            caps.sort(reverse=True)
        tally["sorted" if caps == sorted(caps, reverse=True) else "unsorted"] += 1
        tally["k>0" if k else "k=0"] += 1
        tally[f"fills={fills}"] += 1
        top = [None] + [
            window_slack(values, residual, caps, d, w, length)
            for length in range(1, w - k + 2)
        ]
        # Entry i: the least f_w(L) over the windows whose lowest bin is
        # below k + i.
        counts, weights = _search._light_table(values, residual, 0, d)
        floors = _search._least_slack(values, residual, counts, weights, caps, d, w, k)
        if min(top[2:], default=0) < 0:
            assert floors is None, (values, residual, caps, d, w, k)
            tally["walk fails"] += 1
        else:
            assert floors == [
                min(top[w - b + 2 :], default=inf) for b in range(k, w + 1)
            ], (values, residual, caps, d, w, k)
            tally["walk passes"] += 1
        spent = 0
        after = residual
        for j in range(w - 1, w - 1 - fills, -1):
            spent += window_slack(values, after, caps, d, j + 1, 1)
            balls = [c for c in range(m) for _ in range(after[c])]
            kind = rng.choice(["any", "lightest", "heaviest"])
            fill = {
                "any": rng.sample(balls, d),
                "lightest": balls[-d:],
                "heaviest": balls[:d],
            }[kind]
            tally[kind] += 1
            after = after[:]
            for c in fill:
                after[c] -= 1
            slacks = [None] + [
                window_slack(values, after, caps, d, j, length)
                for length in range(1, j - k + 2)
            ]
            for length in range(1, j - k + 2):
                bound = top[length + w - j] - spent
                assert slacks[length] >= bound, (values, residual, caps, d, w, k)
                tally["equal" if slacks[length] == bound else "strict"] += 1
            if floors is not None:
                assert min(slacks[2:], default=inf) >= floors[j - k] - spent
    assert len(tally) == 15 and min(tally.values()) >= 400, tally


def test_window_walk_matches_naive_check():
    # With a budget of one node the search expands only the last bin's entry:
    # it refuses when the window walk passes and answers infeasible when it
    # fails, or feasible at once when no bin is constrained.
    rng = random.Random(29)
    tally = Counter()
    for _ in range(600):
        n = rng.randint(1, 10)
        m = rng.randint(1, 6)
        values = sorted(rng.sample(range(rng.choice([m, 12])), m), reverse=True)
        d = rng.randint(1, 4)
        cuts = sorted(rng.randint(0, d * n) for _ in range(m - 1))
        supply = [b - a for a, b in zip([0] + cuts, cuts + [d * n])]
        if rng.random() < 0.3:  # empty lightest classes
            tail = rng.randint(1, m)
            supply[-tail:] = [0] * tail
            supply[rng.randrange(m - tail + 1)] += d * n - sum(supply)
        mean = sum(v * count for v, count in zip(values, supply)) // n
        caps = [mean + rng.randint(-d * 3, d * 3) for _ in range(n)]
        k = rng.randint(0, n)
        status, _, nodes = _search.search_feasible(values, supply, caps, d, k, 1)
        if k == n:
            assert (status, nodes) == (_search.STATUS_FEASIBLE, 0)
            continue
        fits = windows_fit(values, supply, caps, d, k)
        expected = _search.STATUS_BUDGET if fits else _search.STATUS_INFEASIBLE
        assert status == expected, (values, supply, caps, d, k)
        tally[fits] += 1
        tally["k=0" if k == 0 else "k>0"] += 1
    assert min(tally.values()) >= 100


def test_layers_agree_at_wide_n():
    # Seeded cross-check of the layers at n = 50..60, far beyond the
    # reference search: criteria-infeasible implies oracle-infeasible, and
    # every extremal witness verifies. The oracle also decides the
    # feasibility claim, which verify_witness takes from the companion.
    rng = random.Random(50)
    tally = Counter()
    for _ in range(200):
        n = rng.randint(50, 60)
        w = tuple(sorted(rng.sample(range(2 * n), n), reverse=True))
        d = n + rng.randint(0, 2)
        caps = sorted((d * v + rng.randint(-1, 2) for v in w), reverse=True)
        inst = make_instance(d, w, caps)
        verdict = classify(inst)
        feasible = decide(inst, 0).feasible
        assert not (verdict.is_infeasible and feasible), inst
        tally["classify-infeasible" if verdict.is_infeasible else "classify-open"] += 1
        tally["oracle-feasible" if feasible else "oracle-infeasible"] += 1
    for _ in range(40):
        n = rng.randint(50, 60)
        w = WeightProfile(tuple(sorted(rng.sample(range(2 * n), n), reverse=True)))
        wit = extremal_witness(w, n + rng.randint(0, 2))
        ver = verify_witness(wit)
        assert ver.ok and ver.oracle_backed, w
        assert decide(wit.instance, wit.companion_level).feasible, w
        tally["witness-confirmed"] += 1
    assert tally["classify-infeasible"] >= 50
    assert tally["classify-open"] >= 50
    assert tally["oracle-feasible"] >= 40
    assert tally["oracle-infeasible"] - tally["classify-infeasible"] >= 40
    assert tally["witness-confirmed"] == 40


class TestSearchProperties:
    def test_monotone_in_k(self):
        rng = random.Random(7)
        for inst in small_instances(rng, 150):
            feasible = [decide(inst, k).feasible for k in range(inst.n + 1)]
            # once true at some k, true for every larger k
            for a, b in zip(feasible, feasible[1:]):
                assert (not a) or b
            assert feasible[-1]

    def test_invariant_under_normalize(self):
        rng = random.Random(8)
        for inst in small_instances(rng, 150):
            assert decide(inst, 0).feasible == decide(normalize(inst), 0).feasible

    def test_truncation_equivalence(self):
        rng = random.Random(9)
        for inst in small_instances(rng, 200):
            i = rng.randint(1, inst.n)
            j = rng.randint(0, inst.n - i + 1)
            full = decide(inst, i + j - 1).feasible
            sub = decide(inst.truncate(i), j).feasible
            assert full == sub, (inst, i, j)

    def test_witnesses_valid(self):
        rng = random.Random(10)
        for inst in small_instances(rng, 200):
            k = rng.randint(0, inst.n)
            res = decide(inst, k)
            if res.feasible:
                res.witness.validate()
                assert is_k_feasible(res.witness, inst.capacities, k)

    def test_witnesses_with_free_bins_validate(self):
        # The free bins are filled from the leftover supply as pairs: the
        # finished count matrix passes the dense check.
        rng = random.Random(13)
        feasible = 0
        for inst in small_instances(rng, 500, max_n=7, max_w=6, max_d=4):
            k = rng.randint(1, inst.n)
            res = decide(inst, k)
            if res.feasible:
                res.witness.validate()
                assert is_k_feasible(res.witness, inst.capacities, k)
                feasible += k < inst.n
        assert feasible >= 100

    def test_min_bin1_vs_decision_levels(self):
        rng = random.Random(12)
        for inst in small_instances(rng, 200):
            if not decide(inst, 1).feasible:
                continue
            wmin = min_bin1_weight(inst)
            assert (wmin > inst.capacities[0]) == (not decide(inst, 0).feasible)


class TestErrorPaths:
    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded, match="undecided"):
            decide(SEVEN_DISTINCT, 0, node_budget=10)

    def test_min_bin1_budget_refusal(self):
        with pytest.raises(BudgetExceeded, match="undecided"):
            min_bin1_weight(SEVEN_DISTINCT, node_budget=10)

    @pytest.mark.parametrize("call", [decide, min_bin1_weight])
    def test_negative_budget_is_a_caller_error(self, call):
        # Not a BudgetExceeded, which callers read as an honest refusal.
        with pytest.raises(OracleError, match="node_budget=-1 is negative"):
            call(SEVEN_DISTINCT, node_budget=-1)

    def test_zero_budget_still_refuses(self):
        with pytest.raises(BudgetExceeded, match="node budget 0 exhausted"):
            decide(SEVEN_DISTINCT, 0, node_budget=0)

    def test_min_bin1_budget_is_shared_by_probes(self, monkeypatch):
        # The budget caps the nodes summed over every bisection probe. This
        # instance still needs four probes with the narrowed bracket.
        inst = make_instance(7, (9, 6, 0), (69, 44, 5))
        probes = []
        search = _search.search_feasible

        def counted(*args):
            result = search(*args)
            probes.append(result[2])
            return result

        monkeypatch.setattr(_search, "search_feasible", counted)
        assert min_bin1_weight(inst) == 63
        total = sum(probes)
        assert len(probes) > 1 and max(probes) < total - 1
        assert min_bin1_weight(inst, node_budget=total) == 63
        with pytest.raises(BudgetExceeded, match="undecided"):
            min_bin1_weight(inst, node_budget=total - 1)

    @pytest.mark.parametrize(
        "inst, wmin, caps_probed",
        [
            (SEVEN_DISTINCT, 30, [42]),
            (make_instance(6, (5, 5, 3, 1, 1, 0), (29, 29, 21, 7, 7, 0)), 30,
             [30, 28, 29]),
        ],
        ids=["seven-distinct", "six-bin-extremal"],
    )
    def test_min_bin1_probes(self, inst, wmin, caps_probed, monkeypatch):
        # The bin-1 capacities probed are a deterministic work counter: the
        # first probe at d*w_1 finds a load that bounds W^min from above, and
        # d*sum(w) - sum(C_2..C_n) bounds it from below.
        probed = []
        search = _search.search_feasible

        def counted(values, supply, caps, *rest):
            probed.append(caps[0])
            return search(values, supply, caps, *rest)

        monkeypatch.setattr(_search, "search_feasible", counted)
        assert min_bin1_weight(inst) == wmin
        assert probed == caps_probed

    def test_min_bin1_needs_one_feasibility(self):
        with pytest.raises(OracleError, match="not 1-feasible"):
            min_bin1_weight(make_instance(3, (2, 2), (5, 1)))

    def test_search_needs_d_balls_per_bin(self):
        # The kernel's window walk relies on the supply filling every bin.
        for caps, k in [((5,), 0), ((5, 5, 5), 1), ((5,), 1)]:
            with pytest.raises(ValueError, match="does not fill"):
                _search.search_feasible((3, 1), (2, 2), caps, 2, k, 100)
        status, chosen, _ = _search.search_feasible((3, 1), (2, 2), (5, 4), 2, 0, 100)
        assert status == _search.STATUS_FEASIBLE
        assert chosen == [((0, 1), (1, 1)), ((0, 1), (1, 1))]

    @pytest.mark.parametrize(
        "values, supply, message",
        [
            ((4, 8, 11), (2, 0, 2), r"values \(4, 8, 11\) are not strictly"),
            ((3, 3, 1), (2, 0, 2), r"values \(3, 3, 1\) are not strictly"),
            ((3,), (2, 2), "2 supply counts for 1 classes"),
            ((3, 1), (2,), "1 supply counts for 2 classes"),
            ((3, 1), (5, -1), r"supply \(5, -1\) has a negative count"),
        ],
        ids=["ascending", "repeated", "long-supply", "short-supply", "negative"],
    )
    def test_search_refuses_malformed_classes(self, values, supply, message):
        # Each of these once answered without complaint: the ascending
        # values say infeasible although {4, 11} fits both bins.
        with pytest.raises(ValueError, match=message):
            _search.search_feasible(values, supply, (15, 18), 2, 0, 100)

    @pytest.mark.parametrize(
        "supply, caps, d, k, message",
        [
            ((0, 0), (5, 5), 0, 0, "d must be at least 1, got 0"),
            ((2, 2), (6, 6), 2, -1, "k must be at least 0, got -1"),
        ],
        ids=["d-zero", "k-negative"],
    )
    def test_search_refuses_d_below_one_and_negative_k(
        self, supply, caps, d, k, message
    ):
        # A negative index would wrap around to the last bin or class.
        with pytest.raises(ValueError, match=message):
            _search.search_feasible((3, 1), supply, caps, d, k, 100)

    def test_k_out_of_range(self):
        with pytest.raises(ProfileError):
            decide(make_instance(1, (1,), (1,)), 2)

    def test_witness_check_survives_optimize_flag(self):
        # A bad witness must be caught even under ``python -O``, which strips
        # bare asserts.
        code = """
import sys
from hmbp import _search, oracle
from hmbp.core import make_instance

if not sys.flags.optimize:
    sys.exit("not running under -O")
# A kernel whose answer puts a 3 and a 1 in each bin overfills bin 2.
_search.search_feasible = lambda *args: (
    _search.STATUS_FEASIBLE, [((0, 1), (1, 1)), ((0, 1), (1, 1))], 0
)
try:
    oracle.decide(make_instance(2, (3, 1), (6, 2)), 0)
except AssertionError as exc:
    print("caught:", exc)
"""
        src = str(Path(hmbp.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "caught: oracle witness is not 0-feasible" in proc.stdout
