import math
import random

import pytest

from strongcenter import (
    Orientation,
    OrientationFamily,
    Point,
    axis_box_family,
    brute_force_max_avoiding,
    compute_strong_centerpoint,
    downward_triangle_family,
    max_avoiding_count,
    project,
    verify_strong_centerpoint,
)
from strongcenter.generators import (
    COORD_RANGE,
    DEGENERATE_KINDS,
    Instance,
    convex_position_instance,
    degenerate_instance,
    random_instance,
    tightness_instance,
)
from strongcenter.pointfile import format_points


def test_instance_validation():
    family = axis_box_family(2)
    with pytest.raises(ValueError):
        Instance((), family, 0, "empty")
    with pytest.raises(Exception):
        Instance((Point(1, 2, 3),), family, 0, "bad-dim")


def test_tightness_one_dimensional():
    family = OrientationFamily([Orientation(1), Orientation(-1)])
    inst = tightness_instance(family, 4)
    assert sorted(p[0] for p in inst.points) == [-1, -1, 1, 1]
    p = next(q for q in inst.points if q[0] == 1)
    count, _ = max_avoiding_count(list(inst.points), family, p)
    assert count == 2


def test_tightness_axis_box_clusters():
    inst = tightness_instance(axis_box_family(2), 8)
    assert len(inst.points) == 8
    locations = {tuple(p.coords) for p in inst.points}
    assert locations == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for p in inst.points:
        count, _ = max_avoiding_count(list(inst.points), inst.family, p)
        assert count == 6
        assert count == brute_force_max_avoiding(
            list(inst.points), inst.family, p
        )
        assert verify_strong_centerpoint(
            list(inst.points), inst.family, p
        ).ok


def test_tightness_triangle_single_points():
    inst = tightness_instance(downward_triangle_family(), 3)
    assert len(inst.points) == 3
    for p in inst.points:
        count, _ = max_avoiding_count(list(inst.points), inst.family, p)
        assert count == 2
        assert verify_strong_centerpoint(
            list(inst.points), inst.family, p
        ).ok


def test_tightness_bound_is_achieved_never_exceeded():
    cases = [
        (axis_box_family(1), 6),
        (axis_box_family(2), 12),
        (downward_triangle_family(), 9),
        (axis_box_family(3), 12),
    ]
    for family, n in cases:
        inst = tightness_instance(family, n)
        expected = (family.k - 1) * n // family.k
        for p in inst.points:
            count, _ = max_avoiding_count(list(inst.points), inst.family, p)
            assert count == expected


def test_tightness_rejects_non_divisible_n():
    with pytest.raises(ValueError):
        tightness_instance(axis_box_family(2), 7)
    with pytest.raises(ValueError):
        tightness_instance(axis_box_family(2), 0)


def test_tightness_jitter_keeps_counts():
    # clusters move rigidly: members stay coincident so the projection
    # ties that pin the counts survive any jitter below the gap
    family = axis_box_family(2)
    inst = tightness_instance(family, 8, jitter=1e-6, seed=5)
    locations = {tuple(p.coords) for p in inst.points}
    assert len(locations) == 4
    exact = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert not locations & exact
    for p in inst.points:
        count, _ = max_avoiding_count(list(inst.points), family, p)
        assert count == 6
        assert verify_strong_centerpoint(list(inst.points), family, p).ok


@pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1.0])
def test_tightness_rejects_bad_jitter(jitter):
    with pytest.raises(
        ValueError, match="jitter must be a finite nonnegative number"
    ):
        tightness_instance(axis_box_family(2), 8, jitter=jitter)


def test_tightness_label_and_seed():
    inst = tightness_instance(axis_box_family(2), 8, seed=3)
    assert inst.label == "tightness-k4-n8"
    assert inst.seed == 3


def test_convex_position_counts():
    for n in (3, 4, 8):
        points = convex_position_instance(n)
        assert len(points) == n
        for p in points:
            radial = Orientation(p.coords)
            own = project(p, radial)
            below = sum(
                1 for q in points if project(q, radial) < own
            )
            assert below == n - 1


def test_convex_position_on_unit_circle():
    points = convex_position_instance(12)
    for p in points:
        assert abs(math.hypot(*p.coords) - 1.0) <= 1e-12


def test_convex_position_rejects_small_n():
    with pytest.raises(ValueError):
        convex_position_instance(2)


def test_random_instance_deterministic():
    a = random_instance(7, 50, 2, 4)
    b = random_instance(7, 50, 2, 4)
    assert a.points == b.points
    assert a.family == b.family
    assert format_points(a.points) == format_points(b.points)


def test_random_instance_pipeline_smoke():
    inst = random_instance(1, 1, 1, 1)
    assert len(inst.points) == 1
    assert inst.family.k == 1

    inst = random_instance(7, 50, 2, 4)
    points = list(inst.points)
    cert = compute_strong_centerpoint(points, inst.family)
    assert verify_strong_centerpoint(points, inst.family, cert.point).ok


def test_random_instance_grid_and_label():
    inst = random_instance(3, 30, 3, 5)
    assert inst.label == "random-s3-n30-d3-k5"
    for p in inst.points:
        assert all(isinstance(c, int) for c in p.coords)
        assert all(-COORD_RANGE <= c <= COORD_RANGE for c in p.coords)


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(1, 0, 2, 2)
    with pytest.raises(ValueError):
        random_instance(1, 5, 4, 2)
    with pytest.raises(ValueError):
        random_instance(1, 5, 2, 9)
    with pytest.raises(ValueError):
        random_instance(1, 5, 2, 0)
    # one dimension only admits two distinct directions
    with pytest.raises(ValueError):
        random_instance(1, 5, 1, 3)


def test_degenerate_all_coincident():
    inst = degenerate_instance("all-coincident")
    assert len(inst.points) == 5
    assert len({tuple(p.coords) for p in inst.points}) == 1
    for p in inst.points:
        assert verify_strong_centerpoint(
            list(inst.points), inst.family, p
        ).ok


def test_degenerate_all_collinear():
    inst = degenerate_instance("all-collinear")
    points = list(inst.points)
    assert len(points) == 8
    xs = sorted(p[0] for p in points)
    for p in points:
        verdict = verify_strong_centerpoint(points, inst.family, p)
        if p[0] in (xs[0], xs[-1]):
            assert not verdict.ok
        else:
            assert verdict.ok


def test_degenerate_with_duplicates():
    inst = degenerate_instance("with-duplicates")
    points = list(inst.points)
    assert len(points) > len({tuple(p.coords) for p in points})
    cert = compute_strong_centerpoint(points, inst.family)
    assert verify_strong_centerpoint(points, inst.family, cert.point).ok


def test_degenerate_unknown_kind():
    assert set(DEGENERATE_KINDS) == {
        "all-coincident", "all-collinear", "with-duplicates"
    }
    with pytest.raises(ValueError):
        degenerate_instance("spiral")


def test_pipeline_never_fails_on_degenerate_kinds():
    for kind in DEGENERATE_KINDS:
        inst = degenerate_instance(kind)
        points = list(inst.points)
        cert = compute_strong_centerpoint(points, inst.family)
        assert verify_strong_centerpoint(points, inst.family, cert.point).ok
        count, _ = max_avoiding_count(points, inst.family, cert.point)
        assert count == brute_force_max_avoiding(
            points, inst.family, cert.point
        )


def test_random_instances_compute_verify_round_trip():
    rng = random.Random(41)
    for _ in range(30):
        d = rng.randint(1, 3)
        k = rng.randint(1, 2 if d == 1 else 8)
        n = rng.randint(1, 60)
        inst = random_instance(rng.getrandbits(32), n, d, k)
        points = list(inst.points)
        cert = compute_strong_centerpoint(points, inst.family)
        assert verify_strong_centerpoint(points, inst.family, cert.point).ok
