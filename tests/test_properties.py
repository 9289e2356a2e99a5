"""Property tests: fast paths against their oracles on every numeric path.

The int64, object (big int), float64 and mixed int/float columns each get
generated inputs; ``sorted`` is the oracle for selection and
``brute_force_max_avoiding`` for the verifier.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from strongcenter import (
    Orientation,
    OrientationFamily,
    Point,
    axis_box_family,
    brute_force_max_avoiding,
    compute_strong_centerpoint,
    downward_triangle_family,
    format_points,
    heavy_threshold_exceeded,
    kth_smallest,
    max_avoiding_count,
    parse_point_file,
    project,
    verify_strong_centerpoint,
)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

small_ints = st.integers(-3, 3)
int64s = st.one_of(small_ints, st.integers(INT64_MIN, INT64_MAX))
big_ints = st.one_of(small_ints, st.integers(-(2**70), 2**70))
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def check_selection(values, arr, data):
    rank = data.draw(st.integers(1, len(values)), label="rank")
    before = arr.copy()
    got = kth_smallest(arr, rank)
    want = sorted(values)[rank - 1]
    assert got == want
    assert type(got) is type(want)
    assert np.array_equal(arr, before)
    return got, want


@given(st.lists(int64s, min_size=1, max_size=60), st.data())
def test_kth_smallest_int64_array(values, data):
    check_selection(values, np.array(values, dtype=np.int64), data)


@given(st.lists(floats, min_size=1, max_size=60), st.data())
def test_kth_smallest_float64_array(values, data):
    # The value is pinned, the sign of a zero is not: np.partition may
    # return 0.0 where sorted() returns -0.0 among tied zeros.
    check_selection(values, np.array(values, dtype=np.float64), data)


@given(st.lists(big_ints, min_size=1, max_size=60), st.data())
def test_kth_smallest_object_array(values, data):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    check_selection(values, arr, data)


@given(
    st.lists(st.one_of(big_ints, floats), min_size=1, max_size=60), st.data()
)
def test_kth_smallest_list(values, data):
    rank = data.draw(st.integers(1, len(values)), label="rank")
    got = kth_smallest(values, rank)
    want = sorted(values)[rank - 1]
    # lists go through sorted() itself, so even the sign of zero is pinned
    assert got == want
    assert type(got) is type(want)
    if isinstance(got, float):
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


# ------------------------------------------------------------ verification

# Bases put coordinates in each arithmetic regime: plain int64, near the
# float64 integer limit 2**53, past the int64 dot-product bound 2**62
# (object columns) and past int64 itself.
BASES = (0, 2**53, -(2**53), 2**62, 2**63, -(2**63))


@st.composite
def coordinate(draw, base):
    value = base + draw(st.integers(-6, 6))
    return float(value) if draw(st.booleans()) else value


@st.composite
def instance(draw):
    dim, family = draw(
        st.sampled_from(
            [
                (1, OrientationFamily([Orientation(1), Orientation(-1)])),
                (2, axis_box_family(2)),
                (
                    2,
                    OrientationFamily(
                        [Orientation(1, 1), Orientation(-1, 0),
                         Orientation(0, -1)]
                    ),
                ),
                (2, downward_triangle_family()),
            ]
        )
    )
    bases = [draw(st.sampled_from(BASES)) for _ in range(dim)]
    n = draw(st.integers(1, 6))
    points = [
        Point(tuple(draw(coordinate(b)) for b in bases)) for _ in range(n)
    ]
    candidate = Point(tuple(draw(coordinate(b)) for b in bases))
    return points, family, candidate


@settings(max_examples=300, deadline=None)
@given(instance())
def test_verifier_matches_brute_force(case):
    points, family, candidate = case
    n, k = len(points), family.k
    exact = brute_force_max_avoiding(points, family, candidate)
    most = max_avoiding_count(points, family, candidate)
    assert most[0] == exact
    verdict = verify_strong_centerpoint(points, family, candidate)
    assert verdict.ok == (not heavy_threshold_exceeded(exact, n, k))
    # the same case through a PointFile's int64, object, float64 or mixed
    # columns
    point_file = parse_point_file(format_points(points))
    assert max_avoiding_count(point_file, family, candidate) == most
    assert verify_strong_centerpoint(point_file, family, candidate) == verdict
    counts = [
        (o, sum(project(p, o) < project(candidate, o) for p in points))
        for o in family
    ]
    first_max = next(c for c in counts if c[1] == exact)
    assert most == (exact, first_max[0])
    crossing = [c for c in counts if heavy_threshold_exceeded(c[1], n, k)]
    witness = (verdict.witness_orientation, verdict.witness_count)
    assert witness == (crossing[0] if crossing else (None, None))


@settings(max_examples=300, deadline=None)
@given(instance())
def test_certificate_matches_scalar_containment(case):
    points, family, _ = case
    cert = compute_strong_centerpoint(points, family)
    inside = [
        j for j, p in enumerate(points)
        if all(h.contains(p) for h in cert.halfspaces)
    ]
    assert list(cert.region_members) == inside
    assert cert.contains == tuple(
        sum(h.contains(p) for p in points) for h in cert.halfspaces
    )
    assert verify_strong_centerpoint(points, family, cert.point).ok
