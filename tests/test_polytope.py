import enum
import math
import operator
import random
import re
import tracemalloc

import numpy as np
import pytest

from strongcenter import polytope
from strongcenter import (
    DimensionMismatchError,
    Instance,
    Orientation,
    OrientationFamily,
    Point,
    PointFile,
    SizeGuardError,
    Verdict,
    axis_box_family,
    brute_force_max_avoiding,
    compute_strong_centerpoint,
    downward_triangle_family,
    format_points,
    heavy_threshold_exceeded,
    homothet_family,
    hyperplane_system,
    max_avoiding_count,
    normalize_orientations,
    parse_point_file,
    project,
    random_instance,
    selection_rank,
    tightness_instance,
    verify_strong_centerpoint,
)

PM_X = OrientationFamily([Orientation(1, 0), Orientation(-1, 0)])
COLLINEAR4 = [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]


def test_selection_rank_formula():
    # n - ceil(n/k) + 1, reducing to n - n/k + 1 when k divides n
    assert selection_rank(4, 2) == 3
    assert selection_rank(8, 4) == 7
    assert selection_rank(5, 2) == 3
    assert selection_rank(10, 3) == 7
    assert selection_rank(1, 1) == 1
    assert selection_rank(7, 1) == 1
    assert selection_rank(7, 7) == 7
    assert selection_rank(7, 100) == 7
    with pytest.raises(ValueError, match="^n must be a positive int, got 0$"):
        selection_rank(0, 2)
    with pytest.raises(ValueError, match="^k must be a positive int, got 0$"):
        selection_rank(3, 0)
    for n in range(1, 60):
        for k in range(1, 12):
            m = selection_rank(n, k)
            assert 1 <= m <= n
            # rank m never exceeds the heavy threshold itself
            assert not heavy_threshold_exceeded(m - 1, n, k)


def test_compute_single_point():
    cert = compute_strong_centerpoint([Point(0, 0)], axis_box_family(2))
    assert cert.chosen_index == 0
    assert cert.point == Point(0, 0)
    assert cert.region_members == (0,)
    assert cert.rank == 1


def test_compute_four_collinear_hand_trace():
    cert = compute_strong_centerpoint(COLLINEAR4, PM_X)
    assert cert.rank == 3
    assert [h.offset for h in cert.halfspaces] == [2, -1]
    assert cert.contains == (3, 3)
    assert cert.region_members == (1, 2)
    assert cert.chosen_index == 1
    assert cert.point == Point(1, 0)
    assert verify_strong_centerpoint(COLLINEAR4, PM_X, cert.point).ok


def test_certificate_membership_invariants():
    rng = random.Random(3)
    for _ in range(40):
        inst = random_instance(rng.getrandbits(32), rng.randint(1, 40), 2, 4)
        points = list(inst.points)
        cert = compute_strong_centerpoint(points, inst.family)
        assert cert.chosen_index == cert.region_members[0]
        for index in cert.region_members:
            for halfspace in cert.halfspaces:
                assert halfspace.contains(points[index])


def test_verify_examples():
    assert verify_strong_centerpoint(
        [Point(0, 0)], axis_box_family(2), Point(0, 0)
    ).ok

    eight = [Point(i, 0) for i in range(8)]
    verdict = verify_strong_centerpoint(
        eight, axis_box_family(2), Point(7, 0)
    )
    assert not verdict.ok
    assert verdict.witness_orientation == Orientation(1, 0)
    assert verdict.witness_count == 7

    verdict = verify_strong_centerpoint(COLLINEAR4, PM_X, Point(1, 0))
    assert verdict.ok
    assert verdict.witness_orientation is None


def test_verify_accepts_candidates_outside_the_set():
    verdict = verify_strong_centerpoint(COLLINEAR4, PM_X, Point(1, 99))
    assert verdict.ok
    verdict = verify_strong_centerpoint(COLLINEAR4, PM_X, Point(99, 0))
    assert not verdict.ok


def test_max_avoiding_examples():
    count, _ = max_avoiding_count(
        [Point(0, 0)], axis_box_family(2), Point(0, 0)
    )
    assert count == 0

    inst = tightness_instance(axis_box_family(2), 8)
    count, orientation = max_avoiding_count(
        list(inst.points), inst.family, Point(1, 0)
    )
    assert count == 6
    assert orientation in list(inst.family)


def test_max_avoiding_octagon_radial_direction():
    import math

    n = 8
    points = [
        Point(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
        for j in range(n)
    ]
    for p in points:
        radial = Orientation(p.coords)
        family = OrientationFamily([radial, Orientation(0.0, 1.0)]) \
            if radial != Orientation(0.0, 1.0) else OrientationFamily([radial])
        count, orientation = max_avoiding_count(points, family, p)
        assert count == n - 1
        assert orientation == radial


def test_brute_force_examples():
    assert brute_force_max_avoiding(
        [Point(0, 0)], axis_box_family(2), Point(0, 0)
    ) == 0
    assert brute_force_max_avoiding(COLLINEAR4, PM_X, Point(3, 0)) == 3

    triangle = [Point(0.0, 1.0), Point(-0.9, -0.5), Point(0.9, -0.5)]
    family = downward_triangle_family()
    for p in triangle:
        expected, _ = max_avoiding_count(triangle, family, p)
        assert brute_force_max_avoiding(triangle, family, p) == expected


def test_brute_force_size_guard():
    inst = random_instance(5, 40, 2, 4)
    with pytest.raises(SizeGuardError):
        brute_force_max_avoiding(
            list(inst.points), inst.family, inst.points[0]
        )


def test_oracle_equivalence_small_instances():
    rng = random.Random(99)
    for _ in range(30):
        d = rng.randint(1, 3)
        k = rng.randint(1, 2 if d == 1 else 3)
        n = rng.randint(1, 8)
        inst = random_instance(rng.getrandbits(32), n, d, k)
        points = list(inst.points)
        for p in points:
            fast, _ = max_avoiding_count(points, inst.family, p)
            assert fast == brute_force_max_avoiding(points, inst.family, p)


def test_core_region_examples():
    cert = compute_strong_centerpoint([Point(0, 0)], axis_box_family(2))
    assert cert.region_members == (0,)
    cert = compute_strong_centerpoint(COLLINEAR4, PM_X)
    assert cert.region_members == (1, 2)


def test_core_region_circle_divisible_case():
    import math

    points = [
        Point(math.cos(2 * math.pi * j / 8), math.sin(2 * math.pi * j / 8))
        for j in range(8)
    ]
    members = compute_strong_centerpoint(
        points, axis_box_family(2)
    ).region_members
    assert len(members) >= 4


def test_compute_verify_round_trip_random():
    rng = random.Random(123)
    for _ in range(60):
        d = rng.randint(1, 3)
        k = rng.randint(1, 2 if d == 1 else 8)
        n = rng.randint(1, 80)
        inst = random_instance(rng.getrandbits(32), n, d, k)
        points = list(inst.points)
        cert = compute_strong_centerpoint(points, inst.family)
        assert verify_strong_centerpoint(points, inst.family, cert.point).ok


def test_verdict_invariant_under_scaling_and_translation():
    rng = random.Random(17)
    for _ in range(40):
        inst = random_instance(rng.getrandbits(32), rng.randint(1, 30), 2, 4)
        points = list(inst.points)
        p = points[rng.randrange(len(points))]
        scale = rng.randint(1, 9)
        shift = tuple(rng.randint(-50, 50) for _ in range(2))
        mapped = [
            Point(tuple(scale * c + s for c, s in zip(q.coords, shift)))
            for q in points
        ]
        mapped_p = Point(
            tuple(scale * c + s for c, s in zip(p.coords, shift))
        )
        original = verify_strong_centerpoint(points, inst.family, p)
        transformed = verify_strong_centerpoint(mapped, inst.family, mapped_p)
        assert original == transformed


def test_verdict_invariant_under_permutation():
    rng = random.Random(29)
    inst = random_instance(4242, 25, 3, 5)
    points = list(inst.points)
    p = points[0]
    base = verify_strong_centerpoint(points, inst.family, p)
    for _ in range(10):
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert verify_strong_centerpoint(shuffled, inst.family, p) == base


def test_verdict_depends_only_on_projection_counts():
    # family constrains x only; shuffling the orthogonal y coordinates
    # cannot change any verdict
    rng = random.Random(31)
    xs = [rng.randint(-100, 100) for _ in range(30)]
    points = [Point(x, rng.randint(-100, 100)) for x in xs]
    p = points[5]
    base = verify_strong_centerpoint(points, PM_X, p)
    for _ in range(10):
        scrambled = [Point(x, rng.randint(-100, 100)) for x in xs]
        q = Point(p[0], rng.randint(-100, 100))
        assert verify_strong_centerpoint(scrambled, PM_X, q) == base


def test_duplicates_counted_with_multiplicity():
    points = [Point(0, 0)] * 3 + [Point(5, 0)]
    verdict = verify_strong_centerpoint(points, PM_X, Point(5, 0))
    assert not verdict.ok
    assert verdict.witness_count == 3


def test_k1_family_minimal_halfspace():
    family = OrientationFamily([Orientation(1, 0)])
    points = [Point(3, 1), Point(0, 2), Point(7, 5)]
    cert = compute_strong_centerpoint(points, family)
    assert cert.rank == 1
    assert cert.point == Point(0, 2)
    assert verify_strong_centerpoint(points, family, cert.point).ok


def test_errors_empty_and_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_strong_centerpoint([], PM_X)
    with pytest.raises(DimensionMismatchError):
        compute_strong_centerpoint([Point(1, 2, 3)], PM_X)
    with pytest.raises(DimensionMismatchError):
        verify_strong_centerpoint(COLLINEAR4, PM_X, Point(1, 2, 3))


def test_exact_mode_with_oversized_integers():
    # coordinates far beyond int64 must stay exact via the object path
    big = 10**30
    points = [Point(big, 0), Point(big + 1, 0), Point(big + 2, 0), Point(big + 3, 0)]
    cert = compute_strong_centerpoint(points, PM_X)
    assert cert.point == Point(big + 1, 0)
    verdict = verify_strong_centerpoint(points, PM_X, Point(big + 3, 0))
    assert not verdict.ok
    assert verdict.witness_count == 3


def test_exact_mode_candidate_outside_int64():
    points = [Point(i, 0) for i in range(4)]
    verdict = verify_strong_centerpoint(points, PM_X, Point(10**30, 0))
    assert not verdict.ok
    assert verdict.witness_count == 4


def test_float_and_int_projection_paths_agree_on_ties():
    # a float instance with exact ties: equal coordinates stay equal in
    # both the bulk and scalar paths, so verdicts match the int twin
    float_points = [Point(float(c), 0.0) for c in (0, 1, 1, 2)]
    int_points = [Point(c, 0) for c in (0, 1, 1, 2)]
    for candidate in (Point(1, 0), Point(2, 0), Point(0, 0)):
        float_candidate = Point(float(candidate[0]), 0.0)
        a = verify_strong_centerpoint(float_points, PM_X, float_candidate)
        b = verify_strong_centerpoint(int_points, PM_X, candidate)
        assert a.ok == b.ok
        assert a.witness_count == b.witness_count


def test_float_candidate_against_int64_column_is_exact():
    # 2**53 + 3 rounds to 2**53 + 4 in float64, the candidate itself; every
    # point lies strictly below it, so 4 > n/2 points avoid it
    points = [Point(2**53 + 3)] * 3 + [Point(0)]
    family = OrientationFamily([Orientation(1), Orientation(-1)])
    candidate = Point(9007199254740996.0)
    verdict = verify_strong_centerpoint(points, family, candidate)
    assert not verdict.ok
    assert verdict.witness_orientation == Orientation(1)
    assert verdict.witness_count == 4
    assert max_avoiding_count(points, family, candidate)[0] == 4
    assert brute_force_max_avoiding(points, family, candidate) == 4


def test_float_candidate_witness_count_is_exact():
    # the 131 points at c - 1 would round up to c in float64
    c = 2**53 + 1000
    points = [Point(c - 1, j % 7 - 3) for j in range(131)]
    points += [Point(2**53 + 2 * (j % 500), j % 5 - 2) for j in range(869)]
    verdict = verify_strong_centerpoint(
        points, axis_box_family(2), Point(float(c), 0.0)
    )
    assert not verdict.ok
    assert verdict.witness_orientation == Orientation(1, 0)
    assert verdict.witness_count == 1000


def test_int_candidate_against_float64_column_is_exact():
    # float(2**53 + 1) == 2**53, yet 2**53 < 2**53 + 1 exactly
    points = [Point(float(2**53), 0.0)] * 3 + [Point(0.5, 0.0)]
    verdict = verify_strong_centerpoint(points, PM_X, Point(2**53 + 1, 0))
    assert not verdict.ok
    assert verdict.witness_count == 4


@pytest.mark.parametrize(
    "coords, candidate, expected",
    [
        # thresholds below int64 against an int64 column: nothing lies
        # below along +x, everything along -x
        ([(0, 0), (1, 0), (2, 0)], Point(-10**30, 0), (3, Orientation(-1, 0))),
        ([(0, 0), (1, 0), (2, 0)], Point(-1e30, 0), (3, Orientation(-1, 0))),
        # int thresholds past float64 against a float64 column
        ([(0.5, 0.0), (1.5, 0.0)], Point(10**400, 0), (2, Orientation(1, 0))),
        ([(0.5, 0.0), (1.5, 0.0)], Point(-10**400, 0), (2, Orientation(-1, 0))),
    ],
    ids=["int64-below-int", "int64-below-float", "float64-above-int",
         "float64-below-int"],
)
def test_out_of_range_thresholds_count_every_point_or_none(
    coords, candidate, expected
):
    points = [Point(c) for c in coords]
    count, orientation = expected
    assert brute_force_max_avoiding(points, PM_X, candidate) == count
    for intake in (points, PointFile.from_points(points)):
        assert max_avoiding_count(intake, PM_X, candidate) == expected
        verdict = verify_strong_centerpoint(intake, PM_X, candidate)
        assert verdict == Verdict(False, orientation, count)


def test_mixed_int_and_float_points_stay_exact():
    # float64 would round 2**53 + 3 up to the candidate's 2**53 + 4
    points = [Point(2**53 + 3, 0)] * 3 + [Point(0.5, 0)]
    candidate = Point(2**53 + 4, 0)
    verdict = verify_strong_centerpoint(points, PM_X, candidate)
    assert not verdict.ok
    assert verdict.witness_count == 4
    assert brute_force_max_avoiding(points, PM_X, candidate) == 4
    cert = compute_strong_centerpoint(points, PM_X)
    assert [h.offset for h in cert.halfspaces] == [2**53 + 3, -(2**53 + 3)]


def test_point_file_may_stand_in_for_points():
    point_file = parse_point_file(format_points(COLLINEAR4))
    cert = compute_strong_centerpoint(point_file, PM_X)
    assert cert == compute_strong_centerpoint(COLLINEAR4, PM_X)
    for candidate in (Point(1, 0), Point(3, 0)):
        assert verify_strong_centerpoint(point_file, PM_X, candidate) == \
            verify_strong_centerpoint(COLLINEAR4, PM_X, candidate)
        assert max_avoiding_count(point_file, PM_X, candidate) == \
            max_avoiding_count(COLLINEAR4, PM_X, candidate)
    with pytest.raises(DimensionMismatchError):
        verify_strong_centerpoint(
            point_file, axis_box_family(3), Point(1, 0, 0)
        )
    assert len(point_file.projectors) == 1


def _seeded_points(kind, seed, n=40):
    rng = random.Random(seed)
    draw = {
        "int": lambda: rng.randint(-50, 50),
        "float": lambda: rng.uniform(-50.0, 50.0),
        "mixed": lambda: rng.choice([rng.randint(-50, 50), rng.random()]),
        "beyond-int64": lambda: rng.randint(-(2**70), 2**70),
        "near-2**53": lambda: rng.choice([
            rng.choice([1, -1]) * rng.randint(2**53 - 8, 2**53 + 8),
            rng.uniform(-50.0, 50.0),
        ]),
    }[kind]
    return [Point(draw(), draw()) for _ in range(n)]


# integer normals around the plane, k = 3, 8 and 16
_RING8 = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
_RING16 = _RING8 + [
    (2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)
]
INTEGER_NORMAL_FAMILIES = [
    homothet_family(normals)
    for normals in ([(0, 1), (-1, -1), (1, -1)], _RING8, _RING16)
]
# the column dtype each kind of points projects in under those normals
INTEGER_NORMAL_DTYPES = {
    "int": np.int64,
    "float": np.float64,
    "mixed": np.float64,
    "beyond-int64": object,
    "near-2**53": object,
}


@pytest.mark.parametrize("kind", sorted(INTEGER_NORMAL_DTYPES))
@pytest.mark.parametrize("seed", range(5))
def test_point_file_from_points_answers_as_the_list(kind, seed):
    points = _seeded_points(kind, seed)
    point_file = PointFile.from_points(points)
    assert point_file.dim == 2 and point_file.rows is None
    for i, p in enumerate(points):
        assert all(map(operator.is_, point_file.point(i).coords, p.coords))
    assert [point_file.point(i) for i in range(len(points))] == points
    assert point_file.columns == tuple(zip(*(p.coords for p in points)))
    for family in (axis_box_family(2), downward_triangle_family(),
                   *INTEGER_NORMAL_FAMILIES):
        cert = compute_strong_centerpoint(point_file, family)
        listed = compute_strong_centerpoint(points, family)
        assert cert == listed and repr(cert) == repr(listed)
        for candidate in (cert.point, points[seed], Point(0, 0)):
            verdict = verify_strong_centerpoint(point_file, family, candidate)
            assert verdict == verify_strong_centerpoint(points, family, candidate)
    dtype = np.dtype(INTEGER_NORMAL_DTYPES[kind])
    for family in INTEGER_NORMAL_FAMILIES:
        assert point_file.projectors[family](0).dtype == dtype
    assert len(point_file.projectors) == 5


@pytest.mark.parametrize("kind", ["int", "float", "mixed", "beyond-int64"])
def test_point_file_from_points_matches_its_formatted_file(kind):
    points = _seeded_points(kind, 7, n=5)
    built = PointFile.from_points(points)
    parsed = parse_point_file(format_points(points))
    assert built != parsed  # PointFiles compare by identity
    for i in range(len(points)):
        assert repr(built.point(i)) == repr(parsed.point(i))
    for family in (axis_box_family(2), downward_triangle_family()):
        for candidate in (*points, Point(0, 0), Point(0.5, -1)):
            assert verify_strong_centerpoint(built, family, candidate) \
                == verify_strong_centerpoint(parsed, family, candidate)


def test_point_file_from_points_keeps_subclass_values():
    class Level(enum.IntEnum):
        HIGH = 7

    points = [Point(np.float64(2.5), Level.HIGH), Point(-0.0, 2**70)]
    point_file = PointFile.from_points(points)
    assert point_file.rows is None
    assert point_file.point(0).coords[1] is Level.HIGH
    assert type(point_file.point(0).coords[0]) is np.float64
    assert [point_file.point(i) for i in range(2)] == points


@pytest.mark.parametrize(
    "points, error, message",
    [
        ([], ValueError, "empty point set"),
        ([(1, 2)], TypeError, r"points\[0\] is not a Point"),
        ([Point(1, 2), None], TypeError, r"points\[1\] is not a Point"),
        (
            [Point(1, 2), Point(1, 2, 3)],
            DimensionMismatchError,
            r"points\[1\] has dimension 3, expected 2",
        ),
    ],
)
def test_point_file_from_points_errors(points, error, message):
    with pytest.raises(error, match=message):
        PointFile.from_points(points)


POINT_INTAKES = {
    "compute": lambda pts: compute_strong_centerpoint(pts, axis_box_family(2)),
    "verify": lambda pts: verify_strong_centerpoint(
        pts, axis_box_family(2), Point(0, 0)
    ),
    "from_points": PointFile.from_points,
    "hyperplane_system": lambda pts: hyperplane_system(pts, 2),
    "Instance": lambda pts: Instance(pts, axis_box_family(2), 0, "intake"),
}


@pytest.mark.parametrize(
    "points, error, message",
    [
        ([], ValueError, "empty point set"),
        ([Point(1, 2), None], TypeError, "points[1] is not a Point"),
        (
            [Point(1, 2), Point(1, 2, 3)],
            DimensionMismatchError,
            "points[1] has dimension 3, expected 2",
        ),
    ],
    ids=["empty", "not-a-point", "wrong-dimension"],
)
@pytest.mark.parametrize("intake", sorted(POINT_INTAKES))
def test_every_point_intake_raises_the_same_errors(intake, points, error, message):
    with pytest.raises(error) as info:
        POINT_INTAKES[intake](points)
    assert type(info.value) is error and str(info.value) == message


def test_point_file_projector_follows_direction_types():
    # Only the integer family projects 2**53 + 1 exactly, so (1, 0) and
    # (1.0, 0.0) are different families and a PointFile keeps a projector
    # for each; a -0.0 component is 0.0, so its family shares one.
    points = [Point(2**53 + 1, 0), Point(0, 0)]
    point_file = parse_point_file(format_points(points))
    exact = PM_X
    rounded = OrientationFamily([Orientation(1.0, 0), Orientation(-1.0, 0)])
    signed_zero = OrientationFamily(
        [Orientation(1.0, -0.0), Orientation(-1.0, -0.0)]
    )
    assert exact != rounded
    assert signed_zero == rounded and repr(signed_zero) == repr(rounded)
    for family in (exact, rounded, signed_zero, exact):
        cert = compute_strong_centerpoint(point_file, family)
        want = compute_strong_centerpoint(points, family)
        assert [repr(h.offset) for h in cert.halfspaces] == \
            [repr(h.offset) for h in want.halfspaces]
    assert len(point_file.projectors) == 2


def test_point_file_reuse_stays_lazy():
    # Along (4, 3) the first point overflows float64, but verify stops at
    # (1, 0): a PointFile builds only the projections a call reads, and an
    # overflow raised by max_avoiding_count is not kept as a result.
    points = [Point(1e308, -1e308), Point(0.0, 0.0), Point(1.0, 1.0),
              Point(2.0, 2.0), Point(3.0, 3.0)]
    family = normalize_orientations([(1, 0), (4, 3)])
    candidate = Point(1e9, 0.0)
    rejected = Verdict(False, Orientation(1, 0), 4)
    assert verify_strong_centerpoint(points, family, candidate) == rejected
    point_file = PointFile.from_points(points)
    assert verify_strong_centerpoint(point_file, family, candidate) == rejected
    with _raises_overflow(Orientation(4, 3)):
        max_avoiding_count(point_file, family, candidate)
    assert verify_strong_centerpoint(point_file, family, candidate) == rejected
    assert len(point_file.projectors) == 1


@pytest.fixture
def built_projections(monkeypatch):
    """One entry per projection built by any ``along`` of ``_projection``."""
    built = []
    original = polytope._projection

    def counting_projection(columns, family):
        along = original(columns, family)

        def counting_along(index):
            built.append(index)
            return along(index)

        return counting_along

    monkeypatch.setattr(polytope, "_projection", counting_projection)
    return built


def test_point_file_builds_each_projection_once(built_projections):
    points = _seeded_points("float", 3)
    family = homothet_family(_RING8)
    for intake, builds in ((PointFile.from_points(points), 1), (points, 2)):
        built_projections.clear()
        cert = compute_strong_centerpoint(intake, family)
        assert verify_strong_centerpoint(intake, family, cert.point)
        assert built_projections == list(range(family.k)) * builds


def _transient_bytes(call):
    """``call()`` and the most memory it allocated at once beyond what
    its result keeps."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


def test_point_list_calls_hold_one_projection_at_a_time():
    # Beyond the columns a Point-list call holds one projection at a time,
    # so 16 orientations cost no more memory than 3; kept, the 16
    # projections of 50,000 floats (6.4 MB) would triple the peak.
    rng = random.Random(1)
    points = [Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(50_000)]
    sixteen_gon = homothet_family(
        [(math.cos(j * math.pi / 8), math.sin(j * math.pi / 8))
         for j in range(16)]
    )
    peaks = []
    for family in (downward_triangle_family(), sixteen_gon):
        cert, compute_peak = _transient_bytes(
            lambda: compute_strong_centerpoint(points, family))
        verdict, verify_peak = _transient_bytes(
            lambda: verify_strong_centerpoint(points, family, cert.point))
        assert verdict.ok
        peaks.append((compute_peak, verify_peak))
    (triangle_compute, triangle_verify), (gon_compute, gon_verify) = peaks
    assert gon_compute <= 1.5 * triangle_compute
    assert gon_verify <= 1.5 * triangle_verify


@pytest.mark.parametrize(
    "normals",
    [
        [(3, 4), (0.6, 0.8), (-1, 0), (0, -1)],
        [(1, 1), (0.5, 0.5), (-1, 0), (0, -1)],
    ],
)
def test_certificate_holds_along_every_given_normal(normals):
    # Near 1e17 an integer normal and its float twin order the points
    # differently, so merging them would make k too small: no halfspace
    # along a given normal may avoid the certified point while holding
    # more than (1 - 1/k) * n of the points.
    family = normalize_orientations(normals)
    given = [Orientation(v) for v in normals]
    rng = random.Random(20261018)
    for _ in range(500):
        base = 10**17 + rng.randint(-(10**15), 10**15)
        points = [
            Point(base + rng.randint(0, 64), base + rng.randint(0, 64))
            for _ in range(rng.randint(3, 8))
        ]
        chosen = compute_strong_centerpoint(points, family).point
        for o in given:
            cut = project(chosen, o)
            below = sum(project(p, o) < cut for p in points)
            assert not heavy_threshold_exceeded(below, len(points), family.k)


def _raises_overflow(orientation):
    return pytest.raises(
        ValueError, match=rf"along {re.escape(repr(orientation))} overflows"
    )


def test_overflowing_projection_is_an_input_error():
    # Along (-4, -3), 3 of the 5 points lie strictly below (0.5, 1), but
    # -4e308 + 3e308 is nan in float64, and compute certified (0.5, 1).
    points = [Point(0.5, 1), Point(2, 3), Point(1e308, -1e308), Point(1, 1),
              Point(-2, 3)]
    family = normalize_orientations([(-4, -3), (-1, 1)])
    with _raises_overflow(Orientation(-4, -3)):
        compute_strong_centerpoint(points, family)
    for call in (max_avoiding_count, brute_force_max_avoiding):
        with _raises_overflow(Orientation(-4, -3)):
            call(points, family, Point(0.5, 1))
    # float64 columns, and object columns (big ints next to floats)
    cases = [
        ([(2, 3), (1e308, -1e308), (0.5, 1), (-2, 3)],
         [(2, -1), (-1, 0), (0, 1)]),
        ([(2**60, 1e308), (1, 1.5), (0, 0)], [(4, 3), (-1, 0), (0, -1)]),
    ]
    for coords, normals in cases:
        points = [Point(c) for c in coords]
        with _raises_overflow(Orientation(normals[0])):
            compute_strong_centerpoint(points, normalize_orientations(normals))


def test_overflowing_candidate_projection_is_an_input_error():
    # Along (4, 3) all 3 points lie strictly below (1e308, -1e308), whose
    # projection 4e308 - 3e308 is nan in float64. The oracle raises too: a
    # nan compares false against every offset, so every polytope would
    # seem to avoid the candidate.
    points = [Point(0, 0), Point(1, 1), Point(2, 5)]
    family = normalize_orientations([(4, 3), (-4, -3)])
    for call in (
        verify_strong_centerpoint, max_avoiding_count, brute_force_max_avoiding
    ):
        with _raises_overflow(Orientation(4, 3)):
            call(points, family, Point(1e308, -1e308))
