"""Builders for the standard fixed-orientation families.

Each builder returns an :class:`OrientationFamily` whose size k sets the
containment threshold (1 - 1/k) * n for that class of objects.
"""

from __future__ import annotations

import math

from .errors import DimensionMismatchError
from .geometry import Orientation, OrientationFamily, normalize_orientations

FAMILY_NAMES = ("axis-box", "skyline", "orthant", "downward-triangle")


def _axis(dim: int, axis: int, sign: int) -> Orientation:
    v = [0] * dim
    v[axis] = sign
    return Orientation(tuple(v))


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dimension must be a positive int, got {dim!r}")


def axis_box_family(dim: int) -> OrientationFamily:
    """Axis-parallel boxes: both directions per axis, k = 2d."""
    _check_dim(dim)
    out = []
    for axis in range(dim):
        out.append(_axis(dim, axis, 1))
        out.append(_axis(dim, axis, -1))
    return OrientationFamily(out)


def skyline_family(dim: int) -> OrientationFamily:
    """Axis boxes left open toward the negative last axis, k = 2d - 1."""
    return OrientationFamily(axis_box_family(dim).orientations[:-1])


def orthant_family(dim: int) -> OrientationFamily:
    """Translates of the negative orthant: one positive direction per axis,
    k = d."""
    return OrientationFamily(axis_box_family(dim).orientations[::2])


def downward_triangle_family() -> OrientationFamily:
    """Downward-facing equilateral triangles in the plane, k = 3.

    Outward normals at 90, 210 and 330 degrees; the 30-degree components
    are irrational, so this family has no exact integer form.
    """
    half_root3 = math.sqrt(3.0) / 2.0
    return OrientationFamily(
        [
            Orientation(0.0, 1.0),
            Orientation(-half_root3, -0.5),
            Orientation(half_root3, -0.5),
        ]
    )


def homothet_family(facet_normals) -> OrientationFamily:
    """Scaled-and-translated copies of one polytope: its facet normals.

    Normals merge only when their Orientations are equal, so nearly
    parallel ones, or an integer and a float one, each count toward k.
    Requires at least d + 1 of them; fewer cannot bound a polytope.
    """
    normals = list(facet_normals)
    if not normals:
        raise ValueError("no facet normals given")
    first = normals[0]
    dim = first.dim if isinstance(first, Orientation) else len(tuple(first))
    family = normalize_orientations(normals)
    if family.k < dim + 1:
        raise ValueError(
            f"a bounded polytope in dimension {dim} needs at least "
            f"{dim + 1} distinct facet normals, got {family.k}"
        )
    return family


def named_family(name: str, dim: int) -> OrientationFamily:
    """Look up one of the named families at the given dimension."""
    if name == "axis-box":
        return axis_box_family(dim)
    if name == "skyline":
        return skyline_family(dim)
    if name == "orthant":
        return orthant_family(dim)
    if name == "downward-triangle":
        if dim != 2:
            raise DimensionMismatchError(
                "downward-triangle is a planar family"
            )
        return downward_triangle_family()
    raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
