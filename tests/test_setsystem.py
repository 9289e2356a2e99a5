import contextlib
import enum
import io
import itertools
import os
import random
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strongcenter import (
    AbstractResult,
    ParseError,
    Point,
    SetSystem,
    SizeGuardError,
    brute_force_strong_centerpoints,
    check_bounded_intersection,
    format_set_system,
    heavy_threshold_exceeded,
    hyperplane_system,
    parse_set_system,
    restrict,
    strong_centerpoint,
)
from strongcenter import setsystem
from strongcenter.cli import main
from strongcenter.errors import check_size_guard

THREE_LINES = SetSystem(3, ((0, 1), (1, 2), (0, 2)), 2)


def line_system(points, k=2):
    return hyperplane_system(points, 2) if k == 2 else hyperplane_system(points, 3)


# ---------------------------------------------------------------- SetSystem


def test_system_validation():
    sys_ok = SetSystem(4, ((0, 1, 2), (2, 3)), 2)
    assert sys_ok.sets == ((0, 1, 2), (2, 3))
    with pytest.raises(ValueError):
        SetSystem(0, ((0,),), 2)
    with pytest.raises(ValueError):
        SetSystem(4, ((0, 1),), 1)
    with pytest.raises(ValueError):
        SetSystem(4, ((2, 1),), 2)
    with pytest.raises(ValueError):
        SetSystem(4, ((0, 0),), 2)
    with pytest.raises(ValueError):
        SetSystem(4, ((0, 4),), 2)
    with pytest.raises(ValueError):
        SetSystem(4, ((0, 1), (0, 1)), 2)
    with pytest.raises(ValueError):
        SetSystem(4, ((0, 1), ()), 2)
    with pytest.raises(TypeError):
        SetSystem(4, ((0, 1.0),), 2)


BIG = 2**70


FAULTY_SYSTEMS = [
    (4, ((0, 1), ()), ValueError, "set 1 is empty"),
    (4, ((0, True),), TypeError, "set 0 holds non-int element True"),
    (4, ((0, 1), (0, 1.0)), TypeError, "set 1 holds non-int element 1.0"),
    (4, ((np.int64(1),),), TypeError,
     f"set 0 holds non-int element {np.int64(1)!r}"),
    (4, ((0, 1), (2, 1)), ValueError, "set 1 is not strictly ascending"),
    (4, ((0, 0),), ValueError, "set 0 is not strictly ascending"),
    (4, ((-1, 0),), ValueError, "set 0 is not strictly ascending"),
    # descending across the int64 range: a wrapped np.diff reads it as
    # ascending
    (BIG, ((2**62, -(2**62) - 2**61),), ValueError,
     "set 0 is not strictly ascending"),
    (4, ((0, 4),), ValueError, "set 0 references element 4 outside 0..3"),
    (4, ((0, 1), (2,), (0, 1)), ValueError,
     "set 2 duplicates an earlier set"),
    # the first faulty set names the error, whatever the later ones hold
    (4, ((0, 1), (0, 1), ()), ValueError, "set 1 duplicates an earlier set"),
    (4, ((0, 2.0, 1),), TypeError, "set 0 holds non-int element 2.0"),
    (4, ((2, 1, 1.5),), ValueError, "set 0 is not strictly ascending"),
    (4, ((0, 5), (1, 0)), ValueError,
     "set 0 references element 5 outside 0..3"),
    (BIG, ((BIG - 1, BIG - 2),), ValueError,
     "set 0 is not strictly ascending"),
    (BIG, ((0,), (1, BIG)), ValueError,
     f"set 1 references element {BIG} outside 0..{BIG - 1}"),
    (BIG, ((-BIG, 0),), ValueError, "set 0 is not strictly ascending"),
    (BIG, ((BIG - 1,), (BIG - 1,)), ValueError,
     "set 1 duplicates an earlier set"),
    # repeated sets are found per set size: sets of other sizes lie between
    (5, ((0, 1, 2), (3,), (1, 4), (0, 1, 2)), ValueError,
     "set 3 duplicates an earlier set"),
    # the repeat sorts before the earlier rows of its size
    (4, ((2, 3), (0, 1), (1, 2), (0, 1)), ValueError,
     "set 3 duplicates an earlier set"),
    # a later set out of range does not hide the earlier repeat
    (4, ((0, 1), (2,), (0, 1), (1, 4)), ValueError,
     "set 2 duplicates an earlier set"),
]


@pytest.mark.parametrize("n, sets, error, message", FAULTY_SYSTEMS)
def test_validation_names_the_first_faulty_set(n, sets, error, message):
    with pytest.raises(error) as info:
        SetSystem(n, sets, 2)
    assert str(info.value) == message


# the faulty systems that a text file can hold: nonempty sets of plain
# ints, past int64 included
@pytest.mark.parametrize("n, sets, error, message", [
    case for case in FAULTY_SYSTEMS
    if all(case[1]) and all(type(e) is int for s in case[1] for e in s)
])
def test_parse_names_the_same_first_faulty_set(n, sets, error, message):
    text = f"{n} 2\n" + "".join(" ".join(map(str, s)) + "\n" for s in sets)
    with pytest.raises(ParseError) as info:
        parse_set_system(text)
    assert str(info.value) == message


def _int64_columns(sets):
    """The CSR columns of ``sets``: int64 ids and their set offsets."""
    ids = np.array([e for s in sets for e in s], np.int64)
    return ids, np.cumsum([0, *map(len, sets)], dtype=np.int64)


# the faulty systems whose ids int64 columns can hold: an empty set, ids
# out of order, an id out of range and a repeated set
@pytest.mark.parametrize("n, sets, error, message", [
    case for case in FAULTY_SYSTEMS
    if all(type(e) is int and -(2**63) <= e < 2**63 for s in case[1] for e in s)
])
def test_column_intake_names_the_same_first_faulty_set(n, sets, error, message):
    with pytest.raises(error) as info:
        SetSystem._from_columns(n, *_int64_columns(sets), 2)
    assert str(info.value) == message


def test_column_intake_checks_the_order_and_ground_size():
    ids, indptr = _int64_columns(((0, 1),))
    with pytest.raises(ValueError, match="order k must be an int >= 2"):
        SetSystem._from_columns(4, ids, indptr, 1)
    with pytest.raises(ValueError, match="ground size must be a positive int"):
        SetSystem._from_columns(0, ids, indptr, 2)
    system = SetSystem._from_columns(4, ids, indptr, 2)
    assert system == SetSystem(4, ((0, 1),), 2)
    assert all(type(e) is int for s in system.sets for e in s)


def test_columns_hold_the_sets():
    system = SetSystem(6, [[0, 1, 2, 3, 4], (3, 4, 5), (0, 5)], 3)
    assert system.ids.dtype == np.int64
    assert system.ids.tolist() == [0, 1, 2, 3, 4, 3, 4, 5, 0, 5]
    assert system.indptr.tolist() == [0, 5, 8, 10]
    empty = SetSystem(3, (), 2)
    assert (empty.ids.tolist(), empty.indptr.tolist()) == ([], [0])
    big = SetSystem(BIG, ((0, 2**69), (2**69, 2**69 + 1)), 3)
    assert big.ids.dtype == object
    assert big.ids.tolist() == [0, 2**69, 2**69, 2**69 + 1]
    # equality and hashing read the sets cut from the columns
    assert big == SetSystem(BIG, ((0, 2**69), (2**69, 2**69 + 1)), 3)
    assert hash(system) == hash(SetSystem(6, system.sets, 3))


def test_the_columns_are_the_only_stored_copy_of_the_sets():
    def unread(system):
        return "sets" not in vars(system)

    built = hyperplane_system([Point(c) for c in itertools.product(range(3), repeat=2)], 2)
    assert unread(built)
    assert strong_centerpoint(built).found and unread(built)
    assert check_bounded_intersection(built) is None and unread(built)
    # every crowded pair group of the first has one core; the second's
    # group fails the core test, and its sets become frozensets
    for text, violation in (("5 3\n0 1 2\n0 1 3\n0 1 4\n", None),
                            ("5 3\n0 1 2 3\n0 1 2 4\n0 1 3 4\n", (0, 1, 2))):
        parsed = parse_set_system(text)
        assert unread(parsed)
        assert check_bounded_intersection(parsed) == violation and unread(parsed)
    # the sets are cut once, on first read, and kept
    assert parsed.sets is parsed.sets and not unread(parsed)
    assert repr(parsed) == ("SetSystem(n=5, sets=((0, 1, 2, 3), (0, 1, 2, 4), "
                            "(0, 1, 3, 4)), k=3)")


def test_equality_with_another_type_is_not_implemented():
    system = SetSystem(3, ((0, 1),), 2)
    assert system.__eq__((3, ((0, 1),), 2)) is NotImplemented
    assert system != (3, ((0, 1),), 2) and system != system.sets


class Id(enum.IntEnum):
    A = 1
    B = 2


def test_int_subclass_members_are_accepted():
    system = SetSystem(3, ((0, Id.A), (Id.A, Id.B)), 2)
    assert system.ids.tolist() == [0, 1, 1, 2]
    assert strong_centerpoint(system).element == 1
    deep = SetSystem(3, ((0, Id.A, Id.B), (Id.A, Id.B)), 3)
    assert strong_centerpoint(deep) == reference_strong_centerpoint(deep)
    assert strong_centerpoint(deep).element == 1


# ---------------------------------------------------------- order 2 (pairs)


def test_pairwise_single_heavy_set():
    system = SetSystem(4, ((0, 1, 2), (2, 3), (0, 3)), 2)
    result = strong_centerpoint(system)
    assert result.element == 0
    assert result.found
    assert result.trace == ((4, None),)
    oracle = brute_force_strong_centerpoints(system)
    assert result.element in oracle


def test_pairwise_two_heavy_sets_share_one_element():
    system = SetSystem(5, ((0, 1, 2), (2, 3, 4)), 2)
    result = strong_centerpoint(system)
    assert result.element == 2
    assert brute_force_strong_centerpoints(system) == [2]


def test_pairwise_three_lines_has_no_centerpoint():
    result = strong_centerpoint(THREE_LINES)
    assert not result.found
    assert result.element is None
    assert result.witness == (0, 1, 2)
    assert brute_force_strong_centerpoints(THREE_LINES) == []


def test_pairwise_no_heavy_sets_returns_lowest_id():
    system = SetSystem(6, ((0, 1), (2, 3), (4, 5)), 2)
    result = strong_centerpoint(system)
    assert result.element == 0


def test_pairwise_solver_leaves_the_property_to_the_checker():
    # two non-nested heavy sets sharing two elements break the k=2 bound;
    # only check_bounded_intersection reports that, the solver answers
    system = SetSystem(5, ((0, 1, 2, 3), (0, 1, 4)), 2)
    assert strong_centerpoint(system).element == 0
    assert check_bounded_intersection(system) == (0, 1)


def test_pairwise_accepts_nested_heavy_sets():
    # a nested pair is an intersection achieved by the single larger set,
    # which restriction from higher orders produces routinely
    system = SetSystem(4, ((0, 1, 2, 3), (0, 1, 2)), 2)
    result = strong_centerpoint(system)
    assert result.element == 0


# ---------------------------------------------------------------- restrict


def test_restrict_hand_trace():
    system = SetSystem(6, ((0, 1, 2, 3, 4), (3, 4, 5), (0, 5)), 3)
    restricted, back = restrict(system, 0)
    assert restricted.n == 5
    assert restricted.k == 2
    assert restricted.sets == ((0, 1, 2, 3, 4), (3, 4), (0,))
    assert back == (0, 1, 2, 3, 4)


def test_restrict_to_full_ground_set_is_identity():
    system = SetSystem(4, ((0, 1, 2, 3), (1, 2)), 3)
    restricted, back = restrict(system, 0)
    assert restricted.n == 4
    assert back == (0, 1, 2, 3)
    assert restricted.sets == system.sets


def test_restrict_drops_disjoint_sets():
    system = SetSystem(6, ((0, 1, 2), (3, 4), (4, 5)), 3)
    restricted, _ = restrict(system, 0)
    assert restricted.sets == ((0, 1, 2),)


def test_restrict_merges_duplicate_intersections():
    system = SetSystem(6, ((0, 1, 2), (0, 1, 3), (0, 1, 4)), 3)
    restricted, _ = restrict(system, 0)
    assert restricted.sets == ((0, 1, 2), (0, 1))


def test_restrict_requires_recursable_order():
    with pytest.raises(ValueError):
        restrict(SetSystem(4, ((0, 1),), 2), 0)
    with pytest.raises(ValueError):
        restrict(SetSystem(4, ((0, 1),), 3), 5)


# ------------------------------------------------------------ general order


def test_general_order_hand_trace():
    system = SetSystem(6, ((0, 1, 2, 3, 4), (3, 4, 5), (0, 5)), 3)
    result = strong_centerpoint(system)
    assert result.element == 0
    assert result.trace == ((6, 0), (5, None))
    assert result.element in brute_force_strong_centerpoints(system)


def test_general_order_restricts_once_at_deep_order():
    # every level below the first would restrict to the whole ground set,
    # so the trace skips them, however deep the order
    result = strong_centerpoint(SetSystem(1, ((0,),), 10**12))
    assert result.element == 0
    assert result.trace == ((1, 0), (1, None))


def test_general_order_trace_skips_levels_that_only_lower_the_order():
    # set 1 is chosen and becomes the restricted ground set, which sits
    # at index 1 (set 0 survives as {6}); the levels from order 4 down to
    # 3 would restrict to it again, so the trace goes straight to the last
    system = SetSystem(7, ((0, 6), (1, 2, 3, 4, 5, 6), (0, 1)), 5)
    result = strong_centerpoint(system)
    assert result.element == 1
    assert result.trace == ((7, 1), (6, None))


def test_general_order_no_heavy_sets():
    system = SetSystem(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)), 3)
    result = strong_centerpoint(system)
    assert result.element == 0
    assert result.trace == ((9, None),)


def test_general_order_concurrent_planes():
    # three "planes" through element 7, each larger than 2n/3; pairwise
    # overlaps are lines but the triple meets only in 7
    system = SetSystem(
        10,
        ((0, 1, 2, 3, 4, 5, 7), (0, 1, 2, 6, 7, 8, 9), (3, 4, 5, 6, 7, 8, 9)),
        3,
    )
    assert check_bounded_intersection(system) is None
    result = strong_centerpoint(system)
    assert result.element == 7
    assert brute_force_strong_centerpoints(system) == [7]


def test_general_order_propagates_no_centerpoint():
    result = strong_centerpoint(THREE_LINES)
    assert not result.found
    assert result.witness == (0, 1, 2)


def test_general_order_picks_largest_heavy_set():
    # both sets are heavy at k=3 over n=6; the larger one is restricted to
    system = SetSystem(6, ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5)), 3)
    result = strong_centerpoint(system)
    assert result.trace[0] == (6, 0)
    assert result.found
    assert result.element in brute_force_strong_centerpoints(system)


def test_solver_matches_oracle_on_random_small_systems():
    rng = random.Random(2026)
    for _ in range(150):
        n = rng.randint(1, 9)
        k = rng.randint(2, 4)
        universe = list(range(n))
        sets = []
        for _ in range(rng.randint(0, 5)):
            size = rng.randint(1, n)
            sets.append(tuple(sorted(rng.sample(universe, size))))
        system = SetSystem(n, tuple(dict.fromkeys(sets)), k)  # sorted, nonempty
        if not system.sets:
            continue
        if check_bounded_intersection(system) is not None:
            continue
        oracle = brute_force_strong_centerpoints(system)
        result = strong_centerpoint(system)
        if result.found:
            assert result.element in oracle
        else:
            assert oracle == []


# ----------------------------------------------------------------- oracle


def test_oracle_examples():
    no_heavy = SetSystem(4, ((0, 1), (2, 3)), 2)
    assert brute_force_strong_centerpoints(no_heavy) == [0, 1, 2, 3]
    assert brute_force_strong_centerpoints(THREE_LINES) == []
    system = SetSystem(5, ((0, 1, 2), (2, 3, 4)), 2)
    assert brute_force_strong_centerpoints(system) == [2]


def test_oracle_size_guard(monkeypatch):
    # with no heavy set the guard is on the m sets plus the n listed ids
    system = SetSystem(21_000_000, ((0, 1),), 2)
    with pytest.raises(SizeGuardError):
        brute_force_strong_centerpoints(system)
    small = SetSystem(100, ((0, 1),), 2)
    monkeypatch.setenv("SC_SIZE_GUARD", "10")
    with pytest.raises(SizeGuardError):
        brute_force_strong_centerpoints(small)


def test_refused_oracle_cuts_no_set_tuples(monkeypatch):
    # the guard counts the sets on the columns
    monkeypatch.setenv("SC_SIZE_GUARD", "10")
    system = parse_set_system("100 2\n0 1\n")
    with pytest.raises(SizeGuardError):
        brute_force_strong_centerpoints(system)
    assert "sets" not in vars(system)
    # answered calls read the columns too, with heavy sets and without
    monkeypatch.delenv("SC_SIZE_GUARD")
    heavy = parse_set_system("6 2\n0 1 2 3\n0 1 2 4 5\n3 4\n")
    assert brute_force_strong_centerpoints(heavy) == [0, 1, 2]
    assert "sets" not in vars(heavy)
    light = parse_set_system("6 2\n0 1\n2 3 4\n")
    assert brute_force_strong_centerpoints(light) == [0, 1, 2, 3, 4, 5]
    assert "sets" not in vars(light)


def test_oracle_guard_prices_the_heavy_sets(monkeypatch):
    # one heavy set of 30 ids among 3 sets costs 3 + 30 = 33, where the
    # n * m = 150 of the old tuple scan would refuse under a budget of 100
    system = SetSystem(50, (tuple(range(30)), (30, 31), (32, 33)), 2)
    monkeypatch.setenv("SC_SIZE_GUARD", "100")
    assert brute_force_strong_centerpoints(system) == list(range(30))
    monkeypatch.setenv("SC_SIZE_GUARD", "32")
    with pytest.raises(SizeGuardError, match="estimated cost 33 "):
        brute_force_strong_centerpoints(system)


def tuple_oracle(system):
    """The oracle as it read the set tuples, kept as the reference. It
    guards the same estimate: m sets, plus Σ|S| of the heavy or else n."""
    heavy_sizes = {size for size in set(map(len, system.sets))
                   if heavy_threshold_exceeded(size, system.n, system.k)}
    heavy = [frozenset(s) for s in system.sets if len(s) in heavy_sizes]
    check_size_guard(len(system.sets)
                     + (sum(map(len, heavy)) if heavy else system.n))
    return sorted(frozenset.intersection(*heavy)) if heavy else list(range(system.n))


Ids = enum.IntEnum("Ids", {f"E{i}": i for i in range(9)})


@st.composite
def oracle_systems(draw):
    """A small system with int64 ids, with ids shifted past 2**64, or with
    some ids replaced by equal ``IntEnum`` members (object columns)."""
    system = draw(small_set_systems())
    kind = draw(st.sampled_from(["int64", "past 2**64", "IntEnum"]))
    if kind == "past 2**64":
        shifted = [tuple(2**64 + e for e in s) for s in system.sets]
        return SetSystem(2**64 + system.n, shifted, system.k)
    if kind == "IntEnum":
        swap = draw(st.lists(st.booleans(), min_size=len(system.ids),
                             max_size=len(system.ids)))
        ids = iter([Ids(e) if w else e for e, w in zip(system.ids.tolist(), swap)])
        return SetSystem(system.n, [[next(ids) for _ in s] for s in system.sets],
                         system.k)
    return system


def oracle_outcome(oracle, system):
    """The answer with each element's type, or the refusal's type and text."""
    try:
        answer = oracle(system)
    except SizeGuardError as exc:
        return type(exc), str(exc)
    return answer, [type(e) for e in answer]


@settings(max_examples=300)
@given(oracle_systems())
@example(SetSystem(4, (), 2))  # no sets: every element qualifies
# 3 does not divide 7: sizes 5 and 6 are heavy (3 * 5 > 2 * 7), 4 is not
@example(SetSystem(7, ((0, 1, 2, 3, 4), (0, 1, 2, 3), (1, 2, 3, 4, 5, 6),
                       (2, 3, 4, 5)), 3))
@example(SetSystem(7, ((0, Ids.E1, 2, 3, 4), (0, 1, 2, 3),
                       (Ids.E1, 2, Ids.E3, 4, 5, 6), (2, 3, 4, 5)), 3))
def test_oracle_matches_the_tuple_oracle(system):
    # past 2**64 no set can be heavy and the answer would be every id, so
    # both refuse it under the default guard with the same text
    outcome = oracle_outcome(brute_force_strong_centerpoints, system)
    assert outcome == oracle_outcome(tuple_oracle, system)


# ---------------------------------------------------------------- checker


def test_checker_pairwise_singletons_ok():
    system = SetSystem(4, ((1, 2), (2, 3), (1, 3)), 2)
    assert check_bounded_intersection(system) is None


def test_checker_flags_two_element_pair_intersection():
    system = SetSystem(4, ((1, 2), (1, 2, 3)), 2)
    assert check_bounded_intersection(system) == (0, 1)


def test_checker_order_three_nested_escape():
    # the triple's intersection equals the pair intersection of the first
    # two sets, so a proper sub-tuple achieves it: allowed at k=3
    system = SetSystem(6, ((0, 1, 2, 3), (0, 1, 4), (0, 1, 5)), 3)
    assert check_bounded_intersection(system) is None

    # every pair here shares three elements, the triple only {0,1}: no
    # proper sub-tuple achieves the triple's intersection
    violating = SetSystem(
        5, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)), 3
    )
    assert check_bounded_intersection(violating) == (0, 1, 2)


def test_checker_random_plane_systems_pass():
    rng = random.Random(7)
    for _ in range(8):
        points = []
        seen = set()
        while len(points) < 8:
            c = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
            if c not in seen:
                seen.add(c)
                points.append(Point(c))
        system = hyperplane_system(points, 3)
        assert check_bounded_intersection(system) is None


def test_checker_size_guard():
    # sets {0, 1, i, i + 1}: 6 pair insertions each, and the pair (0, 1)
    # groups all of them; sets 2 and 3 meet in {0, 1} but sets 0 and 1 in
    # {0, 1, 3}, so after a core test of 4 per set come C(m, 4) * 4 * n
    # more for the order-4 tuples
    small = SetSystem(9, tuple((0, 1, i, i + 1) for i in range(2, 8)), 4)
    assert check_bounded_intersection(small, budget=600) is None
    with pytest.raises(SizeGuardError, match="estimated cost 600 "):
        check_bounded_intersection(small, budget=599)
    # 60 sets: 360 + 240 + C(60, 4) * 4 * 200 under the default budget
    system = SetSystem(200, tuple((0, 1, i, i + 1) for i in range(2, 62)), 4)
    with pytest.raises(SizeGuardError, match="estimated cost 390108600 "):
        check_bounded_intersection(system)
    # sets {0, 1, i} meet pairwise in {0, 1}, so every 4-tuple meets in
    # the intersection of a pair inside it and none is tested: 3 pair
    # insertions and a core test of 3 per set
    sunflower = SetSystem(200, tuple((0, 1, i) for i in range(2, 62)), 4)
    assert check_bounded_intersection(sunflower, budget=360) is None
    with pytest.raises(SizeGuardError, match="estimated cost 360 "):
        check_bounded_intersection(sunflower, budget=359)
    # sizes 2, 3, 1, 5, 4: 1 + 3 + 0 + 10 + 6 pair insertions; the pair
    # (0, 1) groups sets 0, 1, 3 and 4, a core test of 2 + 3 + 5 + 4; 2
    # lies in two of them, so C(4, 3) * 3 * 9 more for their triples
    mixed = SetSystem(9, ((0, 1), (0, 1, 2), (5,), (0, 1, 2, 3, 4), (0, 1, 5, 6)), 3)
    assert check_bounded_intersection(mixed, budget=142) is None
    for budget, cost in ((19, 20), (33, 34), (141, 142)):
        with pytest.raises(SizeGuardError, match=f"estimated cost {cost} "):
            check_bounded_intersection(mixed, budget=budget)


@pytest.mark.parametrize("n, shift", [(BIG, 2**64), (2**40, 2**39)])
def test_checker_guard_texts_keep_the_ground_size(monkeypatch, n, shift):
    # the sizes 2, 3, 1, 5, 4 system of test_checker_size_guard with ids
    # moved up by shift: object ids, and int64 ids past the packing bound,
    # are ranked, but the triple estimate C(4, 3) * 3 * n keeps n
    monkeypatch.delenv("SC_SIZE_GUARD", raising=False)
    sets = ((0, 1), (0, 1, 2), (5,), (0, 1, 2, 3, 4), (0, 1, 5, 6))
    system = SetSystem(n, tuple(tuple(e + shift for e in s) for s in sets), 3)
    last = 34 + 4 * 3 * n
    assert check_bounded_intersection(system, budget=last) is None
    for cost in (20, 34, last):
        with pytest.raises(SizeGuardError) as raised:
            check_bounded_intersection(system, budget=cost - 1)
        assert str(raised.value) == (
            f"estimated cost {cost} exceeds budget {cost - 1}; "
            "set SC_SIZE_GUARD to raise the limit"
        )


def test_checker_passes_grid_plane_system_under_default_budget():
    # the planes through two points all hold the line through them and
    # meet pairwise in its points, so no triple of this system is tested
    rng = random.Random(1)
    points = []
    while len(points) < 40:
        p = Point(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
        if p not in points:
            points.append(p)
    system = hyperplane_system(points, 3)
    assert len(system.sets) == 5102
    assert check_bounded_intersection(system) is None


def test_checker_order_two_guard_counts_pair_insertions():
    # 700 sets of two elements insert one element pair each; neither the
    # ground size n nor the number of set pairs enters the estimate
    system = SetSystem(100_000, tuple((i, 50_000 + i) for i in range(700)), 2)
    assert check_bounded_intersection(system) is None
    assert check_bounded_intersection(system, budget=700) is None
    with pytest.raises(SizeGuardError, match="estimated cost 700 "):
        check_bounded_intersection(system, budget=699)
    # sizes 1, 3, 2: C(1, 2) + C(3, 2) + C(2, 2) = 4 pair insertions
    mixed = SetSystem(6, ((5,), (0, 1, 2), (3, 4)), 2)
    with pytest.raises(SizeGuardError, match="estimated cost 4 "):
        check_bounded_intersection(mixed, budget=3)


def scan_bounded_intersection(system):
    """The first violating k-tuple by definition: every k-tuple in order,
    escaping through any sub-tuple of two or more sets."""
    members = [frozenset(s) for s in system.sets]
    for combo in itertools.combinations(range(len(members)), system.k):
        common = frozenset.intersection(*(members[i] for i in combo))
        if len(common) <= 1:
            continue
        escapes = any(
            frozenset.intersection(*(members[i] for i in sub)) == common
            for size in range(2, system.k)
            for sub in itertools.combinations(combo, size)
        )
        if not escapes:
            return combo
    return None


@st.composite
def small_set_systems(draw):
    """Up to 8 sets over n <= 9 at orders 2-4. Some sets are drawn inside
    earlier ones (nested sets) and some miss at most two elements of the
    ground set (many shared element pairs, and violations at orders 3
    and 4)."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(2, 4))
    ground = frozenset(range(n))
    sets = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["any", "inside", "most", "most"]))
        if kind == "most":
            missing = st.frozensets(
                st.sampled_from(sorted(ground)), min_size=1, max_size=2
            )
            sets.append(ground - draw(missing) or ground)
            continue
        if kind == "inside" and sets:
            pool = sorted(draw(st.sampled_from(sets)))
        else:
            pool = sorted(ground)
        sets.append(draw(st.frozensets(st.sampled_from(pool), min_size=1)))
    return SetSystem(n, tuple(dict.fromkeys(tuple(sorted(s)) for s in sets)), k)


@settings(max_examples=300)
@given(small_set_systems())
@example(SetSystem(5, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)), 3))
@example(SetSystem(6, ((0, 1, 2, 3), (0, 1, 4), (0, 1, 5)), 3))
@example(SetSystem(7, tuple(tuple(set(range(7)) - {i}) for i in range(5)), 4))
@example(SetSystem(4, ((0, 1, 2, 3), (0, 1, 2), (0, 1), (1, 2, 3)), 2))
# one pair group whose first two sets meet in a core held by every set,
# and one whose sets outside that core are disjoint but do not all hold
# it: neither is skipped, and sets 2, 3, 4 violate in each
@example(
    SetSystem(
        7, ((0, 1, 5), (0, 1, 6), (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)), 3
    )
)
@example(
    SetSystem(
        7,
        ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 6), (0, 1, 2, 3), (0, 1, 2, 4),
         (0, 1, 3, 4)),
        3,
    )
)
# object ids: past int64, where the order-3 tuple estimate k * n exceeds
# the default budget, and an int subclass
@example(SetSystem(BIG, ((2**64, 2**65, 2**66), (5, 2**65), (2**64, 2**66)), 2))
@example(
    SetSystem(
        BIG,
        ((2**64, 2**64 + 1, 2**65, 2**65 + 1), (2**64, 2**64 + 1, 2**65, 2**66),
         (2**64, 2**64 + 1, 2**65 + 1, 2**66), (7, 2**64 + 1)),
        3,
    )
)
@example(SetSystem(4, ((0, Id.A, Id.B), (Id.A, 3), (Id.A, Id.B, 3)), 2))
# the one crowded group fails the count test, as 2 lies in two of its three
# sets, yet holds no violating triple
@example(SetSystem(5, ((0, 1, 2), (0, 1, 2, 3), (0, 1, 4)), 3))
# set 0 is in the groups of pairs (0, 1) and (2, 3); only the second fails
# the count test, as 6, 7 and 8 each lie in two of its four sets, and sets
# 3, 4, 5 violate in it
@example(
    SetSystem(
        9,
        ((0, 1, 2, 3), (0, 1, 4), (0, 1, 5), (2, 3, 6, 7), (2, 3, 6, 8),
         (2, 3, 7, 8)),
        3,
    )
)
# one element pair held by sets of sizes 3, 2 and 5, at orders 2 and 3;
# the same sets past int64 (object ids); and with a set of one id between
# them, which holds no pair
@example(SetSystem(6, ((0, 1, 2), (0, 1), (0, 1, 2, 3, 4)), 2))
@example(SetSystem(6, ((0, 1, 2), (0, 1), (0, 1, 2, 3, 4)), 3))
@example(
    SetSystem(
        BIG,
        ((2**63, 2**63 + 1, 2**63 + 2), (2**63, 2**63 + 1),
         (2**63, 2**63 + 1, 2**63 + 2, 2**63 + 3, 2**63 + 4)),
        2,
    )
)
@example(
    SetSystem(
        BIG,
        ((2**63, 2**63 + 1, 2**63 + 2), (2**63, 2**63 + 1),
         (2**63, 2**63 + 1, 2**63 + 2, 2**63 + 3, 2**63 + 4)),
        3,
    )
)
@example(SetSystem(6, ((0, 1, 2), (5,), (0, 1), (0, 1, 2, 3, 4)), 2))
@example(SetSystem(6, ((0, 1, 2), (5,), (0, 1), (0, 1, 2, 3, 4)), 3))
# sets of one id only hold no element pair, with int64 ids and past int64
@example(SetSystem(6, ((0,), (1,), (5,)), 2))
@example(SetSystem(6, ((0,), (1,), (5,)), 3))
@example(SetSystem(BIG, ((2**63,), (2**63 + 1,), (2**63 + 5,)), 2))
@example(SetSystem(BIG, ((2**63,), (2**63 + 1,), (2**63 + 5,)), 3))
# ids ranked before packing: the keys 5 * n + 2**39 and (5 + 2**24) * n +
# 2**39 of these two pairs are equal in int64 at n = 2**40
@example(SetSystem(2**40, ((5, 2**39), (5 + 2**24, 2**39)), 2))
# both sides of the int64 packing bound n * n <= 2**63, with ids at the top
# of the ground set: two sets sharing a pair, and three meeting in one core
@example(SetSystem(3_037_000_499, ((0, 3_037_000_497, 3_037_000_498),
                                   (1, 3_037_000_497, 3_037_000_498)), 2))
@example(SetSystem(3_037_000_499, ((0, 3_037_000_497, 3_037_000_498),
                                   (1, 3_037_000_497, 3_037_000_498),
                                   (2, 3_037_000_497, 3_037_000_498)), 3))
@example(SetSystem(3_037_000_500, ((0, 3_037_000_498, 3_037_000_499),
                                   (1, 3_037_000_498, 3_037_000_499)), 2))
@example(SetSystem(3_037_000_500, ((0, 3_037_000_498, 3_037_000_499),
                                   (1, 3_037_000_498, 3_037_000_499),
                                   (2, 3_037_000_498, 3_037_000_499)), 3))
def test_checker_matches_combinations_scan(system):
    expected = scan_bounded_intersection(system)
    budget = 2**80 if system.n > 2**62 else None
    assert check_bounded_intersection(system, budget) == expected


def test_checker_ranked_one_group_runs_match_scan(monkeypatch):
    # with the packing bound at 0 every id column is ranked and every run
    # of crowded groups, orders 3 and 4 included, holds a single group
    monkeypatch.setattr(setsystem, "_KEYS", 0)
    test_checker_matches_combinations_scan()


@pytest.mark.parametrize("run", [1, 7])
def test_checker_short_runs_match_scan(monkeypatch, run):
    # runs of 1 or 7 ids: a group whose ids pass a run's cut starts the next
    # run, and a group of more ids than a run is a run of its own
    monkeypatch.setattr(setsystem, "_RUN", run)
    test_checker_matches_combinations_scan()


@given(small_set_systems())
@example(SetSystem(4, ((0, 1), (2, 3)), 2))  # no heavy set
@example(SetSystem(5, ((0, 1, 2), (1, 2, 3, 4), (0, 4)), 2))  # 2 does not divide 5
@example(SetSystem(7, ((0, 1, 2, 3, 4), (0, 1, 2, 3), (1, 2, 3, 4, 5)), 3))
@example(SetSystem(6, ((0, 1, 2, 3), (1, 2, 3, 4, 5)), 3))  # 4 sits on the bound
def test_oracle_matches_heavy_set_definition(system):
    n, k = system.n, system.k
    heavy = [set(s) for s in system.sets if k * len(s) > (k - 1) * n]
    expected = sorted(e for e in range(n) if all(e in s for s in heavy))
    assert brute_force_strong_centerpoints(system) == expected


@settings(max_examples=300)
@given(small_set_systems())
@example(parse_set_system("5 3\n0 1 2 3 4\n1 2 3\n2 3 4\n"))
@example(parse_set_system("4 3\n0 2 3\n0 2\n2 3\n0\n0 1 3\n2\n"))
@example(parse_set_system("4 3\n0 1 3\n0 1 2 3\n0 1 2\n"))
@example(THREE_LINES)
def test_solver_matches_oracle_on_checked_systems(system):
    assume(check_bounded_intersection(system) is None)
    oracle = brute_force_strong_centerpoints(system)
    result = strong_centerpoint(system)
    assert result.found == bool(oracle)
    if result.found:
        assert result.element in oracle
        assert result.witness is None
    else:
        heavy = tuple(
            i
            for i, s in enumerate(system.sets)
            if heavy_threshold_exceeded(len(s), system.n, system.k)
        )
        assert result.witness == heavy


def reference_strong_centerpoint(system):
    """The solver as it was before it read the CSR columns: it builds the
    restricted system with ``restrict`` and intersects frozensets."""
    heavy = [
        i
        for i, s in enumerate(system.sets)
        if heavy_threshold_exceeded(len(s), system.n, system.k)
    ]
    if not heavy:
        return AbstractResult(0, None, ((system.n, None),))
    common = frozenset.intersection(*(frozenset(system.sets[i]) for i in heavy))
    trace = ((system.n, None),)
    deeper = frozenset()
    if system.k > 2:
        chosen = max(heavy, key=lambda i: (len(system.sets[i]), -i))
        restricted, back_ids = restrict(system, chosen)
        trace = ((system.n, chosen), (restricted.n, None))
        deeper = frozenset.intersection(
            *(
                frozenset(back_ids[e] for e in s)
                for s in restricted.sets
                if heavy_threshold_exceeded(len(s), restricted.n, 2)
            )
        )
    elements = deeper or common
    if elements:
        return AbstractResult(min(elements), None, trace)
    return AbstractResult(None, tuple(heavy), trace)


@st.composite
def solver_systems(draw):
    """Systems at orders 2-6 with heavy sets, bounded intersection or not:
    sets that miss a few ground elements, the complements of windows that
    cover the ground (often heavy sets with no common element), sets
    drawn inside them, and arbitrary sets."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(2, 6))
    sets = [set(range(n))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["any", "inside", "most", "windows"]))
        pool = sorted(draw(st.sampled_from(sets))) if kind == "inside" else range(n)
        if kind == "windows":
            # complements of windows just narrow enough to leave them heavy
            width = max(1, -(-n // k) - draw(st.integers(0, 1)))
            sets.extend(set(pool) - set(range(a, a + width)) or set(pool)
                        for a in range(draw(st.integers(0, width)), n, width))
        elif kind == "most":
            missing = st.sets(st.sampled_from(pool), max_size=n // k + 1)
            sets.append(set(pool) - draw(missing) or set(pool))
        else:
            sets.append(draw(st.sets(st.sampled_from(pool), min_size=1)))
    sets = sets[draw(st.integers(0, 1)):]
    return SetSystem(n, tuple(dict.fromkeys(tuple(sorted(s)) for s in sets)), k)


@settings(max_examples=400)
@given(solver_systems())
@example(SetSystem(6, ((0, 1, 2, 3, 4), (3, 4, 5), (0, 5)), 3))
@example(THREE_LINES)
@example(SetSystem(3, ((0, 1), (1, 2), (0, 2)), 6))
@example(SetSystem(7, ((0, 6), (1, 2, 3, 4, 5, 6), (0, 1)), 5))
@example(SetSystem(6, ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5)), 3))
@example(SetSystem(4, ((0, 1, 2, 3), (2, 3)), 3))  # S ∩ C is half of C
def test_solver_matches_restricting_reference(system):
    result = strong_centerpoint(system)
    expected = reference_strong_centerpoint(system)
    assert (result.element, result.witness, result.trace) == (
        expected.element, expected.witness, expected.trace
    )
    plain = [x for level in result.trace for x in level] + [result.element]
    assert all(type(x) is int for x in plain if x is not None)
    oracle = brute_force_strong_centerpoints(system)
    assert result.element in oracle if result.found else oracle == []


@pytest.mark.parametrize("k", [10**18, 2**63, BIG])
def test_solver_orders_past_int64(k):
    # k * size overflows int64; the heavy bound is taken in Python ints
    system = SetSystem(10, (tuple(range(10)), tuple(range(9)), (0, 9)), k)
    result = strong_centerpoint(system)
    assert result == reference_strong_centerpoint(system)
    assert result.element == 0
    assert result.trace == ((10, 0), (10, None))


def test_solver_on_ids_past_int64():
    system = SetSystem(BIG, ((2**69, 2**69 + 1), (0, 2**69), (BIG - 1,)), 3)
    assert system.ids.dtype == object
    result = strong_centerpoint(system)
    assert result == reference_strong_centerpoint(system)
    assert result.trace == ((BIG, None),)


def test_solver_takes_no_array_of_the_ground_size():
    # an array of length 10**15 could not be allocated; the solver reads
    # only the members of the sets
    system = SetSystem(10**15, ((0, 1), (1, 2)), 2)
    assert strong_centerpoint(system) == AbstractResult(0, None, ((10**15, None),))


def test_solver_prefers_restricted_level_over_smallest_oracle_element():
    # the oracle's smallest element is 0, but the restricted sets heavy at
    # order 2 meet only in 1 and 2; preferring them is what keeps the
    # answer on the planted flat of perfbench's abstract-planted systems,
    # where the smallest oracle element can lie off it
    system = parse_set_system("3 3\n0 1 2\n1 2\n")
    assert brute_force_strong_centerpoints(system) == [0, 1, 2]
    assert strong_centerpoint(system).element == 1


def test_checker_takes_large_line_system_under_default_budget(monkeypatch):
    monkeypatch.delenv("SC_SIZE_GUARD", raising=False)
    rng = random.Random(200)
    coords = set()
    while len(coords) < 200:
        coords.add((rng.randint(0, 1000), rng.randint(0, 1000)))
    system = hyperplane_system([Point(c) for c in sorted(coords)], 2)
    assert len(system.sets) > 19_000
    assert check_bounded_intersection(system) is None


# ------------------------------------------------------------- hyperplanes


def test_hyperplane_line_configuration():
    points = [Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)]
    system = hyperplane_system(points, 2)
    assert system.n == 4
    assert system.k == 2
    assert set(system.sets) == {(0, 1, 2), (0, 3), (1, 3), (2, 3)}
    result = strong_centerpoint(system)
    assert result.element in (0, 1, 2)


def test_hyperplane_triangle_boundary_case():
    points = [Point(0, 0), Point(1, 0), Point(0, 1)]
    system = hyperplane_system(points, 2)
    assert set(system.sets) == {(0, 1), (0, 2), (1, 2)}
    result = strong_centerpoint(system)
    assert not result.found


def test_hyperplane_general_position_planes():
    points = [Point(0, 0, 0), Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1)]
    system = hyperplane_system(points, 3)
    assert system.k == 3
    assert len(system.sets) == 4
    assert all(len(s) == 3 for s in system.sets)


def test_hyperplane_collinear_triples_merge():
    points = [Point(i, 0) for i in range(5)]
    system = hyperplane_system(points, 2)
    assert system.sets == ((0, 1, 2, 3, 4),)


def test_hyperplane_coplanar_points_merge():
    points = [
        Point(0, 0, 1), Point(1, 0, 1), Point(0, 1, 1), Point(1, 1, 1),
        Point(0, 0, 0),
    ]
    system = hyperplane_system(points, 3)
    assert (0, 1, 2, 3) in system.sets


def test_hyperplane_tiny_inputs_use_maximal_flats():
    # with n <= d all points lie on one common hyperplane: one set of all ids
    one = hyperplane_system([Point(2, 5)], 2)
    assert one.sets == ((0,),)
    two = hyperplane_system([Point(0, 0), Point(1, 1)], 2)
    assert two.sets == ((0, 1),)
    three = hyperplane_system(
        [Point(0, 0, 0), Point(1, 0, 0), Point(0, 1, 0)], 3
    )
    assert three.sets == ((0, 1, 2),)
    # so do n > d points when no d of them span a hyperplane
    for dim, n in ((2, 2), (2, 3), (2, 6), (3, 3), (3, 4), (3, 7)):
        coincident = hyperplane_system([Point((4,) * dim)] * n, dim)
        assert (coincident.n, coincident.sets) == (n, (tuple(range(n)),))
    collinear = [Point(t, 2 * t, -t) for t in (0, 1, 1, 3, -2)]
    assert hyperplane_system(collinear, 3).sets == ((0, 1, 2, 3, 4),)
    floats = [Point(0.5 * t, 0.25, 1.0 - t) for t in range(4)]
    assert hyperplane_system(floats, 3).sets == ((0, 1, 2, 3),)


def test_hyperplane_duplicate_points_kept_distinct_ids():
    points = [Point(0, 0), Point(0, 0), Point(1, 0), Point(2, 1)]
    system = hyperplane_system(points, 2)
    assert system.n == 4
    # the two copies of the origin land in every set through the origin
    for s in system.sets:
        if 0 in s:
            assert 1 in s


def test_hyperplane_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        hyperplane_system([Point(0,), Point(1,)], 1)
    with pytest.raises(ValueError):
        hyperplane_system([Point(0, 0)], 3)


@pytest.mark.parametrize(
    "dim", [2.0, 3.0, np.float64(2), True, False, np.True_, "2", None, 1, 4,
            np.int64(4)],
)
def test_hyperplane_validates_the_dimension_before_any_work(dim):
    # the points are not even iterable: any work would fail differently
    with pytest.raises(ValueError) as info:
        hyperplane_system(object(), dim)
    assert str(info.value) == f"supported dimensions are 2 and 3, got {dim!r}"


@pytest.mark.parametrize("dim", [np.int64(2), np.int32(3), np.uint8(3)])
def test_hyperplane_takes_integer_dimensions_as_plain_ints(dim):
    coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)]
    points = [Point(c[:int(dim)]) for c in coords]
    system = hyperplane_system(points, dim)
    assert type(system.k) is int
    assert system == hyperplane_system(points, int(dim))


def test_hyperplane_float_coordinates():
    points = [Point(0.0, 0.0), Point(0.5, 0.0), Point(1.0, 0.0), Point(0.0, 2.5)]
    system = hyperplane_system(points, 2)
    assert (0, 1, 2) in system.sets


def test_hyperplane_systems_pass_checker_and_match_oracle():
    rng = random.Random(11)
    for _ in range(40):
        points = []
        seen = set()
        count = rng.randint(4, 9)
        while len(points) < count:
            c = (rng.randint(0, 5), rng.randint(0, 5))
            if c not in seen:
                seen.add(c)
                points.append(Point(c))
        system = hyperplane_system(points, 2)
        assert check_bounded_intersection(system) is None
        result = strong_centerpoint(system)
        oracle = brute_force_strong_centerpoints(system)
        if result.found:
            assert result.element in oracle
        else:
            assert oracle == []


def exact_hyperplane_sets(coords, dim):
    """The incidence sets by definition, in exact integer arithmetic."""
    n = len(coords)
    found = set()
    for span in itertools.combinations(coords, dim):
        anchor = span[0]
        u = [x - y for x, y in zip(span[1], anchor)]
        if dim == 2:
            normal = (-u[1], u[0])
        else:
            v = [x - y for x, y in zip(span[2], anchor)]
            normal = (
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            )
        if not any(normal):
            continue
        found.add(
            tuple(
                t
                for t, p in enumerate(coords)
                if sum(c * (x - y) for c, x, y in zip(normal, p, anchor)) == 0
            )
        )
    # no d points span: all lie on one common hyperplane
    return tuple(sorted(found)) or (tuple(range(n)),)


@st.composite
def small_int_points(draw):
    dim = draw(st.sampled_from([2, 3]))
    coordinate = st.integers(-2, 2)
    pool = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=8))
    # drawing from a pool that may be smaller than n repeats points
    n = draw(st.integers(1, 8))
    return dim, [draw(st.sampled_from(pool)) for _ in range(n)]


def assert_columns_handed_over(system):
    """The columns the build handed over are those the tuple constructor
    makes of the same sets, dtypes included, and the text form parses back
    to the same system."""
    rebuilt = SetSystem(system.n, system.sets, system.k)
    for got, want in ((system.ids, rebuilt.ids), (system.indptr, rebuilt.indptr)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert parse_set_system(format_set_system(system)) == system


@given(small_int_points())
# three points of a line lead several planes through it: their sets share
# their first three ids, and only each plane's first span orders them
@example((3, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
              (0, 1, 1)]))
# copies of one point lead several lines: their sets share the first two ids
@example((2, [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (2, -1)]))
def test_hyperplane_system_matches_exact_definition(case):
    dim, coords = case
    system = hyperplane_system([Point(c) for c in coords], dim)
    assert (system.n, system.k) == (len(coords), dim)
    assert system.sets == exact_hyperplane_sets(coords, dim)
    assert_columns_handed_over(system)


@given(small_int_points())
def test_hyperplane_float_twins_give_the_integer_system(case):
    dim, coords = case
    exact = hyperplane_system([Point(c) for c in coords], dim)
    for scale in (1.0, 0.25):
        twins = [Point(tuple(x * scale for x in c)) for c in coords]
        assert hyperplane_system(twins, dim) == exact


MIXED_COORDINATES = [
    0, 1, -1, 2, 0.0, -0.0, 0.5, -1.5, 0.25, 2.0**-60,
    2**53, 2**53 + 1, -(2**53) - 3, 2.0**53, 2**64 + 1, 1e300,
]


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            st.lists(
                st.tuples(*[st.sampled_from(MIXED_COORDINATES)] * dim),
                min_size=1,
                max_size=7,
            ),
        )
    )
)
def test_hyperplane_system_is_exact_on_mixed_input(case):
    dim, coords = case
    system = hyperplane_system([Point(c) for c in coords], dim)
    rational = [tuple(Fraction(x) for x in c) for c in coords]
    assert system.sets == exact_hyperplane_sets(rational, dim)


def test_hyperplane_near_collinear_floats_are_not_incident():
    # 1e-12 off the line (or plane) of the others: no tolerance merges them
    points = [Point(0, 0), Point(1, 0), Point(2, 1e-12)]
    assert hyperplane_system(points, 2).sets == ((0, 1), (0, 2), (1, 2))
    points = [
        Point(0, 0, 0), Point(1, 0, 0), Point(0, 1, 0), Point(1.0, 1.0, 1e-12)
    ]
    assert hyperplane_system(points, 3).sets == (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    )


def test_hyperplane_big_integers_mixed_with_floats_stay_exact():
    # 2**53 + 1 rounds to 2**53 in float64, which would put point 2 on the
    # line through points 0, 1 and 3
    big = 2**53
    points = [
        Point(0.0, 0.0), Point(big, 1), Point(big + 1, 1), Point(0.5, 2.0**-54)
    ]
    sets = ((0, 1, 3), (0, 2), (1, 2), (2, 3))
    assert hyperplane_system(points, 2).sets == sets


def _edge_points(b, dim):
    """Points with coordinates up to ``b``: flats through three or more of
    them, a duplicate, and a float twin of one location."""
    if dim == 2:
        return [
            (b, b), (-b, -b), (0, 0), (1, 1), (b, -b), (-b, b), (b, 1 - b),
            (b, 0), (b, b), (float(b), float(b)),
        ]
    return [
        (b, b, b), (-b, -b, -b), (0, 0, 0), (b, -b, 0), (-b, b, 0),
        (b, b, -b), (0, 0, b), (1, 1, 1), (b, -b, 1 - b), (b, b, b),
        (float(b), float(-b), 0.0),
    ]


# hyperplane_system keeps offsets in int64 while the scaled coordinate
# bound B has dim! * 2**(dim - 1) * B**dim < 2**62, that is B < 2**30 for
# lines and B <= 577350 for planes, and normals while
# (dim - 1)! * (2 * B)**(dim - 1) < 2**62; past either, Python ints
@pytest.mark.parametrize(
    "dim, coords",
    [
        (2, _edge_points(2**30 - 1, 2)),
        (2, _edge_points(2**30, 2)),
        # the 0.5 doubles the scale, so the scaled bound is 2**30
        (2, _edge_points(2**29, 2) + [(0.5, -0.5), (2**29 - 0.5, 0)]),
        (2, _edge_points(2**61, 2)),
        (3, _edge_points(577350, 3)),
        (3, _edge_points(577351, 3)),
        # scaled bound 577352
        (3, _edge_points(288676, 3) + [(0.5, 0.5, -0.5)]),
        (3, _edge_points(2**31, 3)),
    ],
    ids=[
        "lines-below", "lines-above", "lines-scaled-above", "lines-object",
        "planes-below", "planes-above", "planes-scaled-above",
        "planes-object",
    ],
)
def test_hyperplane_system_exact_across_the_int64_limit(dim, coords):
    system = hyperplane_system([Point(c) for c in coords], dim)
    rational = [tuple(Fraction(x) for x in c) for c in coords]
    assert system.sets == exact_hyperplane_sets(rational, dim)
    assert_columns_handed_over(system)


def test_hyperplane_parallel_flats_offsets_two_to_the_64_apart():
    # normal (1, 2**33): offsets 0 and 2**64 agree modulo 2**64, so int64
    # offsets would merge the two lines (and the two planes through them)
    lines = [(0, 0), (2**33, -1), (0, 2**31), (2**33, 2**31 - 1)]
    system = hyperplane_system([Point(c) for c in lines], 2)
    assert system.sets == tuple(itertools.combinations(range(4), 2))
    assert system.sets == exact_hyperplane_sets(lines, 2)
    planes = [c + (0,) for c in lines] + [(0, 0, 1), (0, 2**31, 1)]
    system = hyperplane_system([Point(c) for c in planes], 3)
    assert system.sets == exact_hyperplane_sets(planes, 3)
    assert (0, 1, 4) in system.sets and (2, 3, 5) in system.sets


def test_hyperplane_system_exact_on_degenerate_grids():
    # many lines and planes of the grid hold more than d points
    rng = random.Random(14)
    grid = rng.sample(list(itertools.product(range(6), repeat=2)), 36)
    system = hyperplane_system([Point(c) for c in grid], 2)
    assert system.sets == exact_hyperplane_sets(grid, 2)
    assert max(map(len, system.sets)) == 6
    cube = rng.sample(list(itertools.product(range(6), repeat=3)), 40)
    system = hyperplane_system([Point(c) for c in cube], 3)
    assert system.sets == exact_hyperplane_sets(cube, 3)
    assert sum(len(s) > 3 for s in system.sets) > 100


def _repeated(locations, n, seed):
    """n points drawn from ``locations``, each location at least once."""
    rng = random.Random(seed)
    picks = list(locations) + [rng.choice(locations) for _ in range(n - len(locations))]
    rng.shuffle(picks)
    return picks


@pytest.mark.parametrize(
    "dim, coords",
    [
        # three of the six locations are collinear, so a line holds the
        # copies of three locations
        (2, _repeated([(0, 0), (1, 1), (2, 2), (0, 3), (4, -1), (-2, 5)], 60, 1)),
        # four of the six locations are coplanar
        (3, _repeated(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (2, -1, 3)],
            30, 2,
        )),
        (2, [(3, -1)] * 5),
        (3, [(1, 2, 3)] * 7),
        (3, _repeated([(t, 2 * t, -t) for t in range(-2, 3)], 9, 3)),
    ],
    ids=["lines-60-on-6", "planes-30-on-6", "lines-coincide", "planes-coincide",
         "planes-collinear"],
)
def test_hyperplane_system_exact_with_many_repeats(dim, coords):
    system = hyperplane_system([Point(c) for c in coords], dim)
    assert (system.n, system.k) == (len(coords), dim)
    assert system.sets == exact_hyperplane_sets(coords, dim)
    assert_columns_handed_over(system)


def test_restriction_keeps_property_on_line_systems():
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        points = []
        seen = set()
        count = rng.randint(4, 8)
        while len(points) < count:
            c = (rng.randint(0, 4), rng.randint(0, 4))
            if c not in seen:
                seen.add(c)
                points.append(Point(c))
        base = hyperplane_system(points, 2)
        if len(base.sets) > 12:
            continue
        lifted = SetSystem(base.n, base.sets, 3)
        if check_bounded_intersection(lifted) is not None:
            continue
        for index in range(len(lifted.sets)):
            restricted, _ = restrict(lifted, index)
            assert check_bounded_intersection(restricted) is None
            checked += 1
    assert checked > 50


# ------------------------------------------------------------ serialization


def test_round_trip_is_bit_exact():
    system = SetSystem(6, ((0, 1, 2, 3, 4), (3, 4, 5), (0, 5)), 3)
    text = format_set_system(system)
    assert text == "6 3\n0 1 2 3 4\n3 4 5\n0 5\n"
    assert parse_set_system(text) == system
    assert format_set_system(parse_set_system(text)) == text
    # an IntEnum id is written as its int, not as str() gives it on 3.10
    enum_ids = SetSystem(3, ((0, Id.A), (Id.A, Id.B)), 2)
    assert parse_set_system(format_set_system(enum_ids)) == enum_ids


def test_format_writes_the_rows_from_the_columns():
    # int64 ids, ids past int64 and IntEnum ids (an object column given
    # straight to the columns intake) are written as ints, and no set
    # tuples are cut
    enum_ids = np.array([0, Id.A, Id.A, Id.B], dtype=object)
    cases = [
        (parse_set_system("6 3\n0 1 2 3 4\n3 4 5\n0 5\n"),
         "6 3\n0 1 2 3 4\n3 4 5\n0 5\n"),
        (SetSystem(BIG, ((0, 2**69), (2**69, 2**69 + 1)), 3),
         f"{BIG} 3\n0 {2**69}\n{2**69} {2**69 + 1}\n"),
        (SetSystem._from_columns(3, enum_ids, np.array([0, 2, 4]), 2),
         "3 2\n0 1\n1 2\n"),
    ]
    for system, text in cases:
        assert format_set_system(system) == text
        assert "sets" not in vars(system)
        assert parse_set_system(text) == system


def test_parse_tolerates_trailing_newline_only():
    assert parse_set_system("3 2\n0 1\n1 2\n\n") == SetSystem(
        3, ((0, 1), (1, 2)), 2
    )


@given(
    st.text(
        alphabet=st.sampled_from(list("0123456789 -+x.\n\t\r٣")),
        max_size=40,
    )
)
def test_parse_set_system_raises_only_parse_error(text):
    try:
        system = parse_set_system(text)
    except ParseError:
        return
    assert parse_set_system(format_set_system(system)) == system


@st.composite
def corrupted_set_system_files(draw):
    """A small system's text form with one fault; the order may be as
    deep as 10**12."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(2, 6))
    sets = st.frozensets(st.integers(0, n - 1), min_size=1)
    rows = [
        [str(e) for e in sorted(s)]
        for s in draw(st.lists(sets, min_size=1, max_size=6, unique=True))
    ]
    header = [str(n), str(k)]
    fault = draw(
        st.sampled_from(
            ["none", "header", "order", "element", "token", "order-swap",
             "duplicate", "blank-row", "utf-8"]
        )
    )
    i = draw(st.integers(0, len(rows) - 1))
    if fault == "header":
        header = draw(
            st.sampled_from(
                [[], [str(n)], [str(n), str(k), "1"], ["x", str(k)],
                 [str(n), "2.0"], ["0", str(k)], ["-3", str(k)]]
            )
        )
    elif fault == "order":
        header[1] = str(draw(st.sampled_from([-1, 0, 1, 10, 10**4, 10**12])))
    elif fault == "element":
        rows[i].append(str(draw(st.sampled_from([-1, n, n + 7, 10**4]))))
    elif fault == "token":
        rows[i][0] = draw(st.sampled_from(["x", "1.5", "0x1", "", "--1"]))
    elif fault == "order-swap":
        rows[i].reverse()
        rows[i].append(rows[i][-1])
    elif fault == "duplicate":
        rows.append(list(rows[i]))
    elif fault == "blank-row":
        rows.insert(i, [])
    lines = [" ".join(header)] + [" ".join(row) for row in rows]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "utf-8":
        data = data.replace(b"\n", b"\n\xff", 1)
    return data


@given(corrupted_set_system_files())
def test_cli_abstract_maps_corrupted_files_to_exit_codes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.txt")
        with open(path, "wb") as handle:
            handle.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["abstract", path, "--check", "--oracle"])
    assert code in (0, 1, 2, 4)
    if out.getvalue():
        assert "\nmode: abstract\n" in out.getvalue()
    else:
        # only malformed input goes without a report
        assert code == 2
        assert err.getvalue().startswith("error: ")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_set_system("")
    with pytest.raises(ParseError):
        parse_set_system("3\n0 1\n")
    with pytest.raises(ParseError):
        parse_set_system("3 2\n0 x\n")
    with pytest.raises(ParseError):
        parse_set_system("3 2\n1 0\n")
    with pytest.raises(ParseError):
        parse_set_system("3 2\n0 5\n")
