"""Instance generators: the matching lower-bound construction, the
convex-position witness against unrestricted halfspaces, seeded random
instances, and named degenerate layouts."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .families import axis_box_family
from .geometry import Orientation, OrientationFamily, Point
from .pointfile import point_columns

COORD_RANGE = 1000
_DIRECTION_RANGE = 9

DEGENERATE_KINDS = ("all-coincident", "all-collinear", "with-duplicates")


@dataclass(frozen=True)
class Instance:
    """A labelled point set together with its orientation family."""

    points: tuple
    family: OrientationFamily
    seed: int
    label: str

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        point_columns(points, self.family.dim)  # raises on a bad point set


def _unit_anchor(orientation: Orientation):
    """Cluster anchor at distance 1 along the orientation, exact when the
    canonical direction already has unit length."""
    if orientation.is_integral and sum(
        c * c for c in orientation.direction
    ) == 1:
        return orientation.direction
    return orientation.unit()


def tightness_instance(
    family: OrientationFamily, n: int, jitter: float = 0.0, seed: int = 0
) -> Instance:
    """k clusters of n/k points, one at unit distance along each orientation.

    Requires k | n. Every point of the instance then has a heaviest
    avoiding polytope with exactly (1 - 1/k) * n points, witnessing that
    the containment threshold cannot be lowered. ``jitter`` > 0 nudges
    each cluster rigidly by a uniform offset in a cube of that
    half-width, for plots. The offset is shared within a cluster; moving
    members independently would break the projection ties that pin the
    count, so below half the minimum projection gap the strict-below
    counts are exactly unchanged.
    """
    k = family.k
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if n % k != 0:
        raise ValueError(f"n must be a multiple of k={k}, got {n}")
    if not (math.isfinite(jitter) and jitter >= 0):
        raise ValueError(
            f"jitter must be a finite nonnegative number, got {jitter!r}"
        )
    rng = random.Random(seed)
    points = []
    for orientation in family:
        anchor = _unit_anchor(orientation)
        if jitter > 0:
            offset = [rng.uniform(-jitter, jitter) for _ in anchor]
            anchor = tuple(c + o for c, o in zip(anchor, offset))
        for _ in range(n // k):
            points.append(Point(anchor))
    return Instance(tuple(points), family, seed, f"tightness-k{k}-n{n}")


def convex_position_instance(n: int) -> list[Point]:
    """n points at distinct angles of the unit circle.

    For each point there is a direction, its own bearing from the origin,
    along which all other points project strictly lower; so over
    unrestricted halfspaces no containment fraction below 1 admits a
    strong centerpoint.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        raise ValueError(f"need an int n >= 3, got {n!r}")
    points = []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        points.append(Point(math.cos(theta), math.sin(theta)))
    return points


def random_instance(seed: int, n: int, d: int, k: int) -> Instance:
    """Deterministic pseudo-random instance: integer grid points in
    [-1000, 1000]^d and k distinct small-integer directions.

    Dimension 1 admits only the two axis directions, so k <= 2 there.
    """
    if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= 3:
        raise ValueError(f"dimension must be 1, 2 or 3, got {d!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 8:
        raise ValueError(f"k must be between 1 and 8, got {k!r}")
    if d == 1 and k > 2:
        raise ValueError("dimension 1 has only 2 distinct directions")
    rng = random.Random(seed)
    points = tuple(
        Point(tuple(rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(d)))
        for _ in range(n)
    )
    directions: list[Orientation] = []
    while len(directions) < k:
        vec = tuple(
            rng.randint(-_DIRECTION_RANGE, _DIRECTION_RANGE)
            for _ in range(d)
        )
        if not any(vec):
            continue
        orientation = Orientation(vec)
        if orientation not in directions:
            directions.append(orientation)
    return Instance(
        points,
        OrientationFamily(directions),
        seed,
        f"random-s{seed}-n{n}-d{d}-k{k}",
    )


def degenerate_instance(kind: str) -> Instance:
    """Named degenerate layout under the planar axis-box family."""
    family = axis_box_family(2)
    if kind == "all-coincident":
        points = tuple(Point(0, 0) for _ in range(5))
    elif kind == "all-collinear":
        points = tuple(Point(i, 0) for i in range(8))
    elif kind == "with-duplicates":
        points = (
            Point(0, 0),
            Point(1, 0),
            Point(1, 0),
            Point(2, 0),
            Point(2, 1),
            Point(2, 1),
        )
    else:
        raise ValueError(
            f"unknown degenerate kind {kind!r}; choose from "
            f"{DEGENERATE_KINDS}"
        )
    return Instance(points, family, 0, f"degenerate-{kind}")
