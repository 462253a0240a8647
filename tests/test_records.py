"""Behaviour of the package's record types that callers may rely on: their
``repr`` text, equality across classes, hashing, immutability, pickling and
the checks their constructors make."""

import pickle

import pytest

from hmbp import (
    CapacityProfile,
    Feasibility,
    Instance,
    Move,
    ProfileError,
    Transfer,
    Verdict,
    WeightProfile,
    make_instance,
)
from hmbp.solver import MatchingPermutation, SolverUsageError


def test_reprs():
    assert repr(Transfer(3, 2, 1, 4)) == "Transfer(value=3, count=2, src=1, dst=4)"
    move = Move("chain-swap", (Transfer(3, 1, 1, 2), Transfer(1, 1, 2, 1)), 7, j=2)
    assert repr(move) == (
        "Move(kind='chain-swap', transfers=(Transfer(value=3, count=1, src=1, "
        "dst=2), Transfer(value=1, count=1, src=2, dst=1)), bin1_weight=7, "
        "stage=1, i=None, j=2, l=None, t=None)"
    )
    assert repr(Verdict(Feasibility.INFEASIBLE, index=2)) == (
        "Verdict(kind=<Feasibility.INFEASIBLE: 'infeasible'>, index=2)"
    )
    assert repr(Verdict(Feasibility.GUARANTEED_FEASIBLE)) == (
        "Verdict(kind=<Feasibility.GUARANTEED_FEASIBLE: 'guaranteed_feasible'>, "
        "index=None)"
    )
    assert repr(WeightProfile((2, 1))) == "WeightProfile(entries=(2, 1))"
    assert repr(make_instance(2, (2, 1), (5, 3))) == (
        "Instance(d=2, weights=WeightProfile(entries=(2, 1)), "
        "capacities=CapacityProfile(entries=(5, 3)))"
    )


def test_profiles_of_different_kinds_differ():
    assert WeightProfile((2, 1)) != CapacityProfile((2, 1))
    assert not WeightProfile((2, 1)) == CapacityProfile((2, 1))
    assert WeightProfile((2, 1)) == WeightProfile([2, 1])
    assert CapacityProfile((2, -1)) != CapacityProfile((2, -2))


def test_equal_records_hash_equal_and_key_dicts():
    w, w2 = WeightProfile((3, 1, 0)), WeightProfile((3, 1, 0))
    c, c2 = CapacityProfile((9, 4, 2)), CapacityProfile((9, 4, 2))
    assert w == w2 and hash(w) == hash(w2)
    assert c == c2 and hash(c) == hash(c2)
    inst, inst2 = Instance(3, w, c), make_instance(3, (3, 1, 0), (9, 4, 2))
    assert inst == inst2 and hash(inst) == hash(inst2)
    assert inst != make_instance(4, (3, 1, 0), (9, 4, 2))
    table = {w: "w", c: "c", inst: "inst"}
    assert table[w2] == "w" and table[c2] == "c" and table[inst2] == "inst"
    assert len({w, w2, w.truncate(1)}) == 1
    # A profile whose class table is built still equals one whose is not.
    w.classes
    assert w == w2 and hash(w) == hash(w2)


@pytest.mark.parametrize(
    "record, field",
    [
        (WeightProfile((2, 1)), "entries"),
        (CapacityProfile((2, 1)), "entries"),
        (make_instance(2, (2, 1), (5, 3)), "d"),
        (make_instance(2, (2, 1), (5, 3)), "weights"),
        (Transfer(3, 2, 1, 4), "count"),
        (Move("relief-swap", (), 7), "bin1_weight"),
        (Verdict(Feasibility.INDETERMINATE, 1), "index"),
    ],
)
def test_setting_a_field_raises(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert repr(record) == before


@pytest.mark.parametrize(
    "record",
    [
        WeightProfile((5, 5, 3, 0)),
        CapacityProfile((7, -1)),
        make_instance(3, (4, 2, 2), (13, 7, 6)),
    ],
)
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    assert hash(back) == hash(record)
    assert repr(back) == repr(record)


def test_pickled_profile_keeps_its_class_table():
    w = WeightProfile((5, 5, 3, 0))
    table = w.classes
    back = pickle.loads(pickle.dumps(w))
    assert back.classes == table == ((5, 3, 0), (2, 1, 1))
    with pytest.raises(ProfileError):
        back.truncate(5)


def test_truncated_suffix_has_its_own_classes():
    w = WeightProfile((5, 5, 3, 1, 1, 0))
    assert w.classes == ((5, 3, 1, 0), (2, 1, 2, 1))
    assert w.truncate(2).classes == ((5, 3, 1, 0), (1, 1, 2, 1))
    assert w.truncate(3).classes == ((3, 1, 0), (1, 2, 1))
    assert w.truncate(6).classes == ((0,), (1,))
    assert type(w.truncate(2)) is WeightProfile
    assert w.truncate(4) == WeightProfile((1, 1, 0))
    assert CapacityProfile((4, 3, 3)).truncate(2) == CapacityProfile((3, 3))


def naive_gaps(entries):
    """Gap of every position 2..n: the step to the next strictly larger
    value, or for the top block the drop to the second-largest value."""
    top = entries[0]
    second = max(v for v in entries if v < top)
    return tuple(
        top - second if v == top else min(u for u in entries if u > v) - v
        for v in entries[1:]
    )


def naive_b_row(entries):
    """``sum(g - 1)`` over the gaps of every suffix; 0 for a constant one."""
    return tuple(
        0 if len(set(entries[i:])) == 1 else sum(g - 1 for g in naive_gaps(entries[i:]))
        for i in range(len(entries))
    )


PROFILES = [
    (5, 5, 3, 1, 1, 0),
    (9, 7, 4, 4, 4),
    (6, 0),
    (8, 8, 8, 2),
    (12, 9, 5, 2, 0, 0),
]


@pytest.mark.parametrize("entries", PROFILES)
def test_cached_tables_match_a_fresh_build(entries):
    # b_row and gaps are built once and kept, like classes; a fresh profile
    # builds the same tables, and both match their definitions.
    w = WeightProfile(entries)
    assert w.b_row is w.b_row and w.gaps is w.gaps
    fresh = WeightProfile(entries)
    assert w.b_row == fresh.b_row == naive_b_row(entries)
    assert w.gaps == fresh.gaps == naive_gaps(entries)


@pytest.mark.parametrize("entries", PROFILES)
def test_cached_tables_survive_pickling(entries):
    w = WeightProfile(entries)
    tables = (w.classes, w.b_row, w.gaps)
    back = pickle.loads(pickle.dumps(w))
    assert (back.classes, back.b_row, back.gaps) == tables
    assert back == w and hash(back) == hash(w) and repr(back) == repr(w)


@pytest.mark.parametrize("entries", PROFILES)
def test_truncated_suffix_has_its_own_tables(entries):
    # A suffix's b row is the tail of the profile's; its gaps are its own.
    w = WeightProfile(entries)
    w.b_row, w.gaps  # fill the profile's caches before truncating
    for i in range(1, w.n + 1):
        suffix = w.truncate(i)
        assert suffix.b_row == w.b_row[i - 1 :] == naive_b_row(entries[i - 1 :])
        if len(set(entries[i - 1 :])) > 1:
            assert suffix.gaps == naive_gaps(entries[i - 1 :])
        else:
            with pytest.raises(ProfileError, match="constant"):
                suffix.gaps


def test_filled_caches_leave_equality_hash_and_repr_alone():
    w, fresh = WeightProfile((9, 7, 4, 4, 4)), WeightProfile((9, 7, 4, 4, 4))
    before = (hash(w), repr(w))
    w.classes, w.b_row, w.gaps
    assert w == fresh and fresh == w
    assert (hash(w), repr(w)) == before == (hash(fresh), repr(fresh))
    assert len({w, fresh}) == 1
    with pytest.raises(AttributeError):
        w.entries = (1,)
    # A constant profile has no gaps: the error is raised on every read.
    flat = WeightProfile((3, 3))
    for _ in range(2):
        with pytest.raises(ProfileError, match="constant"):
            flat.gaps
    assert flat.b_row == (0, 0) and flat == WeightProfile((3, 3))


def test_constructors_still_check():
    with pytest.raises(ProfileError, match="d must be a positive integer: 2.5"):
        Instance(2.5, WeightProfile((2, 1)), CapacityProfile((5, 3)))
    with pytest.raises(ProfileError, match="d must be a positive integer"):
        Instance(0, WeightProfile((2, 1)), CapacityProfile((5, 3)))
    with pytest.raises(ProfileError, match="profile lengths differ"):
        Instance(1, WeightProfile((2, 1)), CapacityProfile((5,)))
    with pytest.raises(ProfileError, match="weight profile entries must be integers"):
        WeightProfile((2.5, 1))
    with pytest.raises(ProfileError, match="capacity profile must have at least one"):
        CapacityProfile(())
    with pytest.raises(ProfileError, match="weights must be non-negative"):
        WeightProfile((2, -1))
    with pytest.raises(ProfileError, match="C not non-increasing at position 2"):
        CapacityProfile((1, 2))
    with pytest.raises(SolverUsageError, match="not a permutation fixing 1"):
        MatchingPermutation((2, 1))
    assert MatchingPermutation((1, 3, 2)).bin_for(2) == 3
