import math
import random
from fractions import Fraction

import pytest

from strongcenter import (
    DimensionMismatchError,
    Halfspace,
    Orientation,
    OrientationFamily,
    Point,
    heavy_threshold_exceeded,
    kth_smallest,
    normalize_orientations,
    project,
    same_direction,
)


def test_point_basics():
    p = Point(1, 2)
    assert p.dim == 2
    assert p.is_integral
    assert tuple(p) == (1, 2)
    assert p == Point((1, 2))
    assert Point(0.5, 1).is_integral is False


def test_point_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        Point()
    with pytest.raises(ValueError):
        Point(float("nan"), 0)
    with pytest.raises(ValueError):
        Point(float("inf"))
    with pytest.raises(TypeError):
        Point("3", 1)
    with pytest.raises(TypeError):
        Point(True, 1)


def test_orientation_gcd_canonical_form():
    assert Orientation(2, 0).direction == (1, 0)
    assert Orientation(4, 6).direction == (2, 3)
    assert Orientation(-4, -6).direction == (-2, -3)
    assert Orientation(5).direction == (1,)
    assert Orientation(-7).direction == (-1,)


def test_orientation_float_unit_norm():
    o = Orientation(3.0, 4.0)
    assert o.direction == (0.6, 0.8)
    for _ in range(50):
        rng = random.Random(_)
        vec = [rng.uniform(-5, 5) for _ in range(3)]
        if not any(vec):
            continue
        o = Orientation(tuple(vec))
        norm = math.sqrt(sum(c * c for c in o.direction))
        assert abs(norm - 1.0) <= 1e-12


def test_orientation_rejects_zero_vector():
    with pytest.raises(ValueError):
        Orientation(0, 0)
    with pytest.raises(ValueError):
        Orientation(0.0, -0.0)


def test_positive_multiples_compare_equal():
    assert Orientation(2, 0) == Orientation(1, 0)
    assert Orientation(2, 0) != Orientation(-1, 0)
    assert Orientation(10, 15) == Orientation(2, 3)
    # unit floats of an integer direction match the exact form elementwise
    assert Orientation(1.0, 0.0) == Orientation(1, 0)


def test_same_direction_tolerance():
    a = Orientation(1.0, 0.0)
    b = Orientation(1.0, 1e-10)
    assert not same_direction(a, b)
    assert same_direction(a, b, tol=1e-9)
    assert not same_direction(a, Orientation(-1.0, 0.0), tol=1e-9)


@pytest.mark.parametrize(
    "exact, unit",
    [((1, 1), (0.5, 0.5)), ((1, 2), (0.5, 1.0)), ((3, 4), (0.6, 0.8))],
)
def test_family_rejects_integer_and_float_multiples(exact, unit):
    # the float direction's unit vector equals the integer one's bitwise
    assert same_direction(Orientation(exact), Orientation(unit))
    with pytest.raises(ValueError):
        OrientationFamily([Orientation(exact), Orientation(unit)])


def test_family_rejects_duplicates_and_mixed_dimension():
    with pytest.raises(ValueError):
        OrientationFamily([Orientation(1, 0), Orientation(2, 0)])
    with pytest.raises(DimensionMismatchError):
        OrientationFamily([Orientation(1, 0), Orientation(1, 0, 0)])
    with pytest.raises(ValueError):
        OrientationFamily([])
    fam = OrientationFamily([Orientation(1, 0), Orientation(-1, 0)])
    assert fam.k == 2
    assert fam.dim == 2


def test_project_examples():
    assert project(Point(0, 0), Orientation(1, 0)) == 0
    assert project(Point(1, 0), Orientation(0, 1)) == 0
    assert project(Point(3, 4), Orientation(0.6, 0.8)) == 5.0
    with pytest.raises(DimensionMismatchError):
        project(Point(1, 2, 3), Orientation(1, 0))


def test_project_is_linear_under_translation():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(1, 3)
        p = Point(tuple(rng.uniform(-10, 10) for _ in range(d)))
        t = tuple(rng.uniform(-10, 10) for _ in range(d))
        vec = tuple(rng.uniform(-2, 2) for _ in range(d))
        if not any(vec):
            continue
        u = Orientation(vec)
        shifted = Point(tuple(c + tc for c, tc in zip(p.coords, t)))
        expected = project(p, u) + sum(
            tc * uc for tc, uc in zip(t, u.direction)
        )
        assert abs(project(shifted, u) - expected) <= 1e-9


def test_halfspace_contains_closed_boundary():
    h = Halfspace(Orientation(1, 0), 2)
    assert h.contains(Point(2, 5))
    assert h.contains(Point(-3, 0))
    assert not h.contains(Point(3, 0))


def test_kth_smallest_examples():
    assert kth_smallest([5], 1) == 5
    assert kth_smallest([2, 1, 2, 0], 3) == 2
    assert kth_smallest([-1, -1, -1], 2) == -1


def test_kth_smallest_matches_sort_oracle():
    rng = random.Random(20260822)
    for _ in range(400):
        n = rng.randint(1, 50)
        values = [rng.randint(-20, 20) for _ in range(n)]
        if rng.random() < 0.5:
            values = [v + rng.random() for v in values]
        m = rng.randint(1, n)
        assert kth_smallest(values, m) == sorted(values)[m - 1]


def test_kth_smallest_does_not_mutate_and_handles_large_runs():
    values = [3, 1, 2] * 200
    snapshot = list(values)
    assert kth_smallest(values, 1) == 1
    assert kth_smallest(values, len(values)) == 3
    assert values == snapshot
    # descending input leans on the sort fallback path
    descending = list(range(5000, 0, -1))
    assert kth_smallest(descending, 1234) == 1234


def test_kth_smallest_range_errors():
    with pytest.raises(ValueError):
        kth_smallest([], 1)
    with pytest.raises(ValueError):
        kth_smallest([1, 2], 0)
    with pytest.raises(ValueError):
        kth_smallest([1, 2], 3)
    with pytest.raises(TypeError):
        kth_smallest([1, 2], 1.0)


def test_normalize_orientations_examples():
    fam = normalize_orientations([(2, 0), (1, 0)])
    assert fam.k == 1
    assert fam[0] == Orientation(1, 0)

    fam = normalize_orientations([(1, 0), (-1, 0)])
    assert fam.k == 2

    fam = normalize_orientations([(0, 3), (4, 0), (0, 1)])
    assert fam.k == 2
    assert fam[0] == Orientation(0, 1)
    assert fam[1] == Orientation(1, 0)


def test_normalize_orientations_is_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        raw = []
        for _ in range(rng.randint(1, 8)):
            vec = tuple(rng.uniform(-3, 3) for _ in range(2))
            if any(vec):
                raw.append(vec)
        if not raw:
            continue
        fam = normalize_orientations(raw)
        again = normalize_orientations(list(fam))
        assert again == fam


def test_normalize_orientations_errors():
    with pytest.raises(ValueError):
        normalize_orientations([])
    with pytest.raises(ValueError):
        normalize_orientations([(0, 0)])


def test_heavy_threshold_examples():
    assert heavy_threshold_exceeded(3, 4, 2) is True
    assert heavy_threshold_exceeded(2, 4, 2) is False
    assert heavy_threshold_exceeded(7, 10, 3) is True


def test_heavy_threshold_validation():
    with pytest.raises(ValueError):
        heavy_threshold_exceeded(5, 4, 2)
    with pytest.raises(ValueError):
        heavy_threshold_exceeded(-1, 4, 2)
    with pytest.raises(ValueError):
        heavy_threshold_exceeded(0, 0, 2)
    with pytest.raises(TypeError):
        heavy_threshold_exceeded(1.0, 4, 2)


def test_heavy_threshold_matches_rational_oracle_small_range():
    # Full Fraction-oracle exhaustion for n <= 300; see the boundary sweep
    # below for the rest of the range.
    for n in range(1, 301):
        for k in range(1, 17):
            for count in range(0, n + 1):
                expected = Fraction(count, n) > Fraction(k - 1, k)
                assert heavy_threshold_exceeded(count, n, k) == expected


def test_heavy_threshold_boundary_sweep_full_range():
    # Both the implementation and the rational oracle are monotone in
    # count, so checking a window around the boundary plus the endpoints
    # decides the whole count range for every (n, k).
    for n in range(1, 1001):
        for k in range(1, 17):
            boundary = ((k - 1) * n) // k
            counts = {0, n}
            for delta in (-2, -1, 0, 1, 2):
                c = boundary + delta
                if 0 <= c <= n:
                    counts.add(c)
            for count in sorted(counts):
                expected = Fraction(count, n) > Fraction(k - 1, k)
                assert heavy_threshold_exceeded(count, n, k) == expected
