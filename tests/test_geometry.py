import enum
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from strongcenter.geometry import _check_number


def test_point_basics():
    p = Point(1, 2)
    assert p.dim == 2
    assert tuple(p) == (1, 2)
    assert p == Point((1, 2))
    assert hash(p) == hash(Point((1, 2)))


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


class _Level(enum.IntEnum):
    HIGH = 7


class _Real(float):
    pass


_COMPONENTS = st.one_of(
    st.integers(-(2**100), 2**100),
    st.floats(),
    st.sampled_from([
        -0.0, 5e-324, math.inf, -math.inf, math.nan,
        True, False, np.float64(2.5), np.float64("nan"), np.int64(3),
        _Level.HIGH, _Real(math.inf), _Real(-1.5),
        Fraction(1, 3), Decimal("1"), "1", None,
    ]),
)


def _outcome(make, *args):
    """What ``make(*args)`` does: (None, result), or the exception's type
    and message."""
    try:
        return None, make(*args)
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc)), None


def _check_loop(values, what):
    """The constructor rule, as a plain loop of ``_check_number``."""
    if not values:
        raise ValueError(f"{what} needs at least one component")
    for v in values:
        _check_number(v, f"{what} component")


@settings(max_examples=600, deadline=None)
@given(
    st.lists(_COMPONENTS, max_size=4),
    st.sampled_from(["args", "tuple", "list"]),
)
def test_constructors_decide_as_a_check_number_loop(values, form):
    args = {
        "args": tuple(values), "tuple": (tuple(values),), "list": (values,)
    }[form]
    for cls, what in ((Point, "point"), (Orientation, "orientation")):
        expected, _ = _outcome(_check_loop, tuple(values), what)
        error, made = _outcome(cls, *args)
        if expected is not None or cls is Point:
            assert error == expected
        elif error is not None:  # the one further rule of Orientation
            assert not any(values)
            assert error == (ValueError, "orientation must be a nonzero vector")
        if cls is Point and made is not None:
            assert len(made.coords) == len(values)
            assert all(c is v for c, v in zip(made.coords, values))
            if form == "tuple":
                assert made.coords is args[0]


def test_orientation_gcd_canonical_form():
    assert Orientation(2, 0).direction == (1, 0)
    assert Orientation(4, 6).direction == (2, 3)
    assert Orientation(-4, -6).direction == (-2, -3)
    assert Orientation(5).direction == (1,)
    assert Orientation(-7).direction == (-1,)
    assert list(Orientation(2, 4)) == [1, 2]
    assert Orientation(2, 4)[1] == 2


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
    # unit floats of an integer direction match the exact form elementwise,
    # but project in float arithmetic, so they are another orientation
    assert Orientation(1.0, 0.0) != Orientation(1, 0)


@pytest.mark.parametrize(
    "exact, unit",
    [((1, 1), (0.5, 0.5)), ((1, 2), (0.5, 1.0)), ((3, 4), (0.6, 0.8))],
)
def test_family_rejects_integer_and_float_multiples(exact, unit):
    # integer multiples, and floats a power of two apart, are one direction
    doubled = tuple(2 * c for c in exact)
    with pytest.raises(ValueError):
        OrientationFamily([Orientation(exact), Orientation(doubled)])
    doubled = tuple(2.0 * c for c in unit)
    with pytest.raises(ValueError):
        OrientationFamily([Orientation(unit), Orientation(doubled)])
    # an integer and a float direction never are, even where their unit
    # vectors agree bitwise: they project in different arithmetic
    assert Orientation(exact).unit() == Orientation(unit).direction
    assert Orientation(exact) != Orientation(unit)
    assert OrientationFamily([Orientation(exact), Orientation(unit)]).k == 2


def test_nearly_parallel_floats_are_distinct():
    a = Orientation(1.0, 0.0)
    assert a != Orientation(1.0, 1e-10)
    assert a == Orientation(5.0, 0.0)
    assert a != Orientation(-1.0, 0.0)
    assert normalize_orientations([(1, 0), (1.0, 1e-10), (-1, 0)]).k == 3


@pytest.mark.parametrize(
    "vec", [(1e200, 1e200), (1e-200, 1e-200), (5e-324, 0.0), (-1e308, 1.0)]
)
def test_orientation_float_unit_norm_at_extreme_magnitudes(vec):
    direction = Orientation(vec).direction
    assert any(direction)
    norm = math.sqrt(sum(c * c for c in direction))
    assert abs(norm - 1.0) <= 1e-15
    assert [math.copysign(1, c) for c in direction] == \
        [math.copysign(1, c) for c in vec]


def _old_unit(vec):
    # unit vector without the prescale: right wherever no square overflows
    # or underflows, so it is the reference there; -0.0 becomes 0.0
    norm = math.sqrt(math.fsum(float(c) * float(c) for c in vec))
    return tuple(float(c) / norm or 0.0 for c in vec)


# magnitudes where neither the plain nor the prescaled squares leave the
# normal float range, so both formulas round identically
_in_range = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-(10**6), 10**6),
    st.builds(
        math.copysign,
        st.floats(min_value=1e-60, max_value=1e60),
        st.sampled_from([1.0, -1.0]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_in_range, min_size=1, max_size=4).filter(
        lambda v: any(v) and not all(isinstance(c, int) for c in v)
    )
)
def test_orientation_prescale_keeps_unit_vectors_bitwise(vec):
    got = Orientation(vec).direction
    assert [c.hex() for c in got] == [c.hex() for c in _old_unit(vec)]


def _positive_multiples(a, b) -> bool:
    parallel = all(
        a[i] * b[j] == a[j] * b[i]
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )
    return parallel and sum(x * y for x, y in zip(a, b)) > 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-4, 4), min_size=d, max_size=d)
            .filter(any)
            .map(tuple),
            min_size=1,
            max_size=8,
        )
    )
)
def test_normalize_integer_vectors_counts_positive_multiple_classes(raw):
    classes: list = []
    for vec in raw:
        if not any(_positive_multiples(rep, vec) for rep in classes):
            classes.append(vec)
    family = normalize_orientations(raw)
    assert family.k == len(classes)
    # a float copy of an integer vector is never merged into it
    floated = tuple(float(c) for c in raw[0])
    assert family[0] != Orientation(floated)
    assert normalize_orientations(raw + [floated]).k == len(classes) + 1


def _spellings(c):
    # an integer component as itself, its float twin, scaled floats, or,
    # for 0, as -0.0
    return st.sampled_from([c, float(c), 2.0 * c, c / 3] + [-0.0] * (c == 0))


# pairs of spellings of the same small integer vectors, one dimension each
_twin_vectors = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        .filter(any)
        .flatmap(
            lambda base: st.tuples(
                st.tuples(*map(_spellings, base)),
                st.tuples(*map(_spellings, base)),
            )
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=300, deadline=None)
@given(_twin_vectors)
def test_orientation_equality_is_projection_identity(twins):
    raw, other = (list(side) for side in zip(*twins))
    orientations = [Orientation(v) for v in raw + other]
    probe = Point(tuple(2**53 + 1 + j for j in range(orientations[0].dim)))
    for a in orientations:
        for b in orientations:
            assert (a == b) == (repr(a) == repr(b))
            if a == b:
                assert hash(a) == hash(b)
                assert repr(project(probe, a)) == repr(project(probe, b))
    family, other_family = map(normalize_orientations, (raw, other))
    assert len(set(family)) == family.k
    assert (family == other_family) == (repr(family) == repr(other_family))
    if family == other_family:
        assert hash(family) == hash(other_family)


def test_family_rejects_duplicates_and_mixed_dimension():
    with pytest.raises(ValueError):
        OrientationFamily([Orientation(1, 0), Orientation(2, 0)])
    with pytest.raises(DimensionMismatchError):
        OrientationFamily([Orientation(1, 0), Orientation(1, 0, 0)])
    with pytest.raises(ValueError):
        OrientationFamily([])
    with pytest.raises(TypeError, match="^not an Orientation: 'x'$"):
        OrientationFamily(["x"])
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
    with pytest.raises(TypeError, match="^not an Orientation: 'x'$"):
        Halfspace("x", 0)


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
    with pytest.raises(ValueError, match="^k must be positive, got 0$"):
        heavy_threshold_exceeded(0, 1, 0)
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
