import math

import pytest

from strongcenter import (
    DimensionMismatchError,
    Orientation,
    Point,
    project,
)
from strongcenter.families import (
    FAMILY_NAMES,
    axis_box_family,
    downward_triangle_family,
    homothet_family,
    named_family,
    orthant_family,
    skyline_family,
)


def test_axis_box_directions():
    assert list(axis_box_family(1)) == [Orientation(1), Orientation(-1)]
    assert list(axis_box_family(2)) == [
        Orientation(1, 0),
        Orientation(-1, 0),
        Orientation(0, 1),
        Orientation(0, -1),
    ]
    family = axis_box_family(3)
    assert family.k == 6
    assert family.dim == 3


def test_skyline_directions():
    assert list(skyline_family(1)) == [Orientation(1)]
    assert list(skyline_family(2)) == [
        Orientation(1, 0),
        Orientation(-1, 0),
        Orientation(0, 1),
    ]
    family = skyline_family(3)
    assert family.k == 5
    assert Orientation(0, 0, -1) not in list(family)
    assert Orientation(0, 0, 1) in list(family)


def test_orthant_directions():
    assert list(orthant_family(2)) == [Orientation(1, 0), Orientation(0, 1)]
    family = orthant_family(3)
    assert family.k == 3
    assert all(sum(abs(c) for c in o.direction) == 1 for o in family)


def test_downward_triangle_normals():
    family = downward_triangle_family()
    assert family.k == 3
    assert family.dim == 2
    for orientation in family:
        norm = math.hypot(*orientation.direction)
        assert abs(norm - 1.0) <= 1e-12
    # normals sum to zero: the triangle closes up
    sx = sum(o.direction[0] for o in family)
    sy = sum(o.direction[1] for o in family)
    assert abs(sx) <= 1e-12 and abs(sy) <= 1e-12
    # apex direction separates the top vertex from the base
    apex = Point(0.0, 1.0)
    base = Point(0.0, -0.5)
    up = list(family)[0]
    assert project(apex, up) > project(base, up)


def test_homothet_family_from_polygon_normals():
    # regular pentagon normals
    normals = [
        (math.cos(2 * math.pi * j / 5), math.sin(2 * math.pi * j / 5))
        for j in range(5)
    ]
    family = homothet_family(normals)
    assert family.k == 5
    assert family.dim == 2


def test_homothet_family_dedups_parallel_normals():
    family = homothet_family([(1, 0), (2, 0), (0, 1), (-1, -1)])
    assert family.k == 3


def test_homothet_family_needs_enough_normals():
    with pytest.raises(ValueError):
        homothet_family([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        homothet_family([(1, 0), (3, 0), (0, 1)])
    with pytest.raises(ValueError, match="^no facet normals given$"):
        homothet_family([])


def test_named_family_dispatch():
    assert named_family("axis-box", 2) == axis_box_family(2)
    assert named_family("skyline", 3) == skyline_family(3)
    assert named_family("orthant", 1) == orthant_family(1)
    assert named_family("downward-triangle", 2) == downward_triangle_family()
    assert set(FAMILY_NAMES) == {
        "axis-box",
        "skyline",
        "orthant",
        "downward-triangle",
    }


def test_named_family_errors():
    with pytest.raises(ValueError):
        named_family("simplex", 2)
    with pytest.raises(DimensionMismatchError):
        named_family("downward-triangle", 3)
    with pytest.raises(ValueError):
        named_family("axis-box", 0)
