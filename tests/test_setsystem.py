import contextlib
import io
import itertools
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strongcenter import (
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
from strongcenter.cli import main

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


def test_from_sets_canonicalizes():
    system = SetSystem.from_sets(5, [[2, 0, 2], [], {1, 3}, (0, 2)], 2)
    assert system.sets == ((0, 2), (1, 3))


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
        try:
            system = SetSystem.from_sets(n, sets, k)
        except ValueError:
            continue
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


def test_oracle_size_guard():
    # guard is on the n * |sets| scan cost
    system = SetSystem(21_000_000, ((0, 1),), 2)
    with pytest.raises(SizeGuardError):
        brute_force_strong_centerpoints(system)
    small = SetSystem(100, ((0, 1),), 2)
    with pytest.raises(SizeGuardError):
        brute_force_strong_centerpoints(small, budget=10)


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
    return SetSystem.from_sets(n, sets, k)


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
def test_checker_matches_combinations_scan(system):
    expected = scan_bounded_intersection(system)
    assert check_bounded_intersection(system) == expected


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
    if n <= dim:
        return (tuple(range(n)),)
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
    return tuple(sorted(found))


@st.composite
def small_int_points(draw):
    dim = draw(st.sampled_from([2, 3]))
    coordinate = st.integers(-2, 2)
    pool = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=8))
    # drawing from a pool that may be smaller than n repeats points
    n = draw(st.integers(1, 8))
    return dim, [draw(st.sampled_from(pool)) for _ in range(n)]


@given(small_int_points())
def test_hyperplane_system_matches_exact_definition(case):
    dim, coords = case
    system = hyperplane_system([Point(c) for c in coords], dim)
    assert (system.n, system.k) == (len(coords), dim)
    assert system.sets == exact_hyperplane_sets(coords, dim)


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
