"""Geometric primitives: points, orientations, halfspaces, the exact
containment threshold, and order-statistic selection.

Numbers are Python ints or floats. All-integer inputs stay exact through
projections and comparisons, so adversarial tie cases behave reproducibly;
float inputs are computed in double precision and compared exactly as
computed, with no hidden epsilons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError

Number = Union[int, float]

_PARTITION_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def _check_number(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} {value!r} is not a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not finite")


def _check_components(values, what: str) -> None:
    """Check a non-empty run of components: an exact ``int`` or finite
    ``float`` passes in the loop itself, and every other value is decided,
    and its message built, by :func:`_check_number`."""
    if not values:
        raise ValueError(f"{what} needs at least one component")
    for v in values:
        t = type(v)
        if t is not int and (t is not float or not math.isfinite(v)):
            _check_number(v, f"{what} component")


class Point:
    """A point in d-dimensional space.

    Accepts ``Point(1, 2)`` or ``Point((1, 2))``. Integer coordinates are
    kept exact; float coordinates must be finite. ``bool`` is rejected, and
    int and float subclasses (``np.float64``, an ``IntEnum``) are accepted
    and stored as given.
    """

    __slots__ = ("coords",)

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        _check_components(coords, "point")
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Number]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, index):
        return self.coords[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Point{self.coords!r}"


class Orientation:
    """The direction of a halfspace's outward normal, in canonical form.

    All-integer vectors are divided by their gcd and stay exact; any other
    vector is scaled to unit length, after an exact power-of-two prescale
    that keeps its squares in range, with ``-0.0`` stored as ``0.0``.
    Orientations are equal exactly when they project every point
    identically: both integer with equal gcd forms, such as (2, 0) and
    (1, 0), or both float with equal unit vectors.
    """

    __slots__ = ("direction",)

    def __init__(self, *direction):
        if len(direction) == 1 and isinstance(direction[0], (tuple, list)):
            direction = tuple(direction[0])
        _check_components(direction, "orientation")
        if not any(direction):
            raise ValueError("orientation must be a nonzero vector")
        if all(isinstance(c, int) for c in direction):
            g = math.gcd(*(abs(c) for c in direction))
            self.direction = tuple(c // g for c in direction)
        else:
            exp = math.frexp(max(abs(float(c)) for c in direction))[1]
            scaled = [math.ldexp(float(c), -exp) for c in direction]
            norm = math.sqrt(math.fsum(c * c for c in scaled))
            # adding 0.0 turns -0.0 into 0.0 and leaves every other value
            self.direction = tuple(c / norm + 0.0 for c in scaled)

    @property
    def dim(self) -> int:
        return len(self.direction)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.direction)

    def unit(self) -> tuple:
        """Coordinates of the unit-length vector along this direction."""
        if not self.is_integral:
            return self.direction
        norm = math.sqrt(sum(c * c for c in self.direction))
        return tuple(c / norm for c in self.direction)

    def __iter__(self) -> Iterator[Number]:
        return iter(self.direction)

    def __getitem__(self, index):
        return self.direction[index]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Orientation)
            and self.is_integral == other.is_integral
            and self.direction == other.direction
        )

    def __hash__(self) -> int:
        return hash(self.direction)

    def __repr__(self) -> str:
        return f"Orientation{self.direction!r}"


class OrientationFamily:
    """An ordered family of distinct orientations sharing one dimension.

    The family size k fixes every containment threshold, and a duplicated
    direction would silently weaken those thresholds, so the constructor
    rejects an orientation equal to an earlier one. Use
    :func:`normalize_orientations` to drop such repeats from raw input
    first. Families are equal when their orientations are, in order.
    """

    __slots__ = ("orientations",)

    def __init__(self, orientations: Iterable[Orientation]):
        orientations = tuple(orientations)
        if not orientations:
            raise ValueError("orientation family must not be empty")
        first: dict[Orientation, int] = {}
        for i, o in enumerate(orientations):
            if not isinstance(o, Orientation):
                raise TypeError(f"not an Orientation: {o!r}")
            if o.dim != orientations[0].dim:
                raise DimensionMismatchError(
                    "orientations of mixed dimension in one family"
                )
            j = first.setdefault(o, i)
            if j != i:
                raise ValueError(f"orientation {i} repeats orientation {j}")
        self.orientations = orientations

    @property
    def k(self) -> int:
        return len(self.orientations)

    @property
    def dim(self) -> int:
        return self.orientations[0].dim

    def __len__(self) -> int:
        return len(self.orientations)

    def __iter__(self) -> Iterator[Orientation]:
        return iter(self.orientations)

    def __getitem__(self, index) -> Orientation:
        return self.orientations[index]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientationFamily)
            and self.orientations == other.orientations
        )

    def __hash__(self) -> int:
        return hash(self.orientations)

    def __repr__(self) -> str:
        return f"OrientationFamily({list(self.orientations)!r})"


def normalize_orientations(raw) -> OrientationFamily:
    """Canonicalize raw direction vectors into an :class:`OrientationFamily`.

    Entries may be coordinate sequences or Orientations. A vector whose
    Orientation equals an earlier one's is dropped; every other vector,
    however nearly parallel, counts toward k. Order of first appearance
    survives.
    """
    vectors = list(raw)
    if not vectors:
        raise ValueError("no directions given")
    kept = dict.fromkeys(
        v if isinstance(v, Orientation) else Orientation(v) for v in vectors
    )
    return OrientationFamily(kept)


def project(point: Point, orientation: Orientation) -> Number:
    """Signed extent of ``point`` along ``orientation`` (their dot product).

    Exact when both sides are integral; otherwise IEEE double, accumulated
    left to right.
    """
    if point.dim != orientation.dim:
        raise DimensionMismatchError(
            f"point of dimension {point.dim} vs orientation of dimension "
            f"{orientation.dim}"
        )
    return sum(c * u for c, u in zip(point.coords, orientation.direction))


@dataclass(frozen=True)
class Halfspace:
    """The closed halfspace {x : x . orientation <= offset}."""

    orientation: Orientation
    offset: Number

    def __post_init__(self):
        if not isinstance(self.orientation, Orientation):
            raise TypeError(f"not an Orientation: {self.orientation!r}")
        _check_number(self.offset, "halfspace offset")

    def contains(self, point: Point) -> bool:
        return project(point, self.orientation) <= self.offset


def kth_smallest(values: Sequence[Number], rank: int) -> Number:
    """The rank-th smallest entry of ``values`` (1-based, with multiplicity).

    An int64 or float64 ndarray goes through ``np.partition`` and comes back
    as a Python int or float; anything else (lists, object-dtype big ints)
    is sorted. Among equal floats the ndarray path may return either of
    ``-0.0`` and ``0.0``. The input is not modified.
    """
    n = len(values)
    if n == 0:
        raise ValueError("kth_smallest of an empty sequence")
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise TypeError(f"rank must be an int, got {rank!r}")
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range for {n} values")
    if isinstance(values, np.ndarray) and values.dtype in _PARTITION_DTYPES:
        return np.partition(values, rank - 1)[rank - 1].item()
    return sorted(values)[rank - 1]


def heavy_threshold_exceeded(count: int, n: int, k: int) -> bool:
    """Whether ``count`` exceeds (1 - 1/k) * n, by integer cross-multiplication.

    This is the strict containment threshold shared by every solver and
    verifier here; cross-multiplying keeps boundary cases exact when k does
    not divide n.
    """
    for name, value in (("count", count), ("n", n), ("k", k)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not 0 <= count <= n:
        raise ValueError(f"count {count} out of range 0..{n}")
    return k * count > (k - 1) * n


def selection_rank(n: int, k: int) -> int:
    """The smallest count exceeding (1 - 1/k) * n: the projection order
    statistic defining each constructed halfspace, and the size from which
    a set is heavy.

    Equals floor((1 - 1/k) * n) + 1, written n - ceil(n/k) + 1 in integers.
    A halfspace cut at this rank can never lose its claim to more than
    (1 - 1/k) * n points, and its complement holds at most ceil(n/k) - 1.
    The fast paths cut at this rank; verifiers and oracles test
    :func:`heavy_threshold_exceeded` on their own.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive int, got {k!r}")
    return n - (n + k - 1) // k + 1
