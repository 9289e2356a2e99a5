"""Strong centerpoints for polytope families with fixed facet orientations.

For each orientation the construction takes the minimal closed halfspace
containing a fixed fraction of the points; the intersection of those k
halfspaces always meets the point set, and any point of it lies inside
every family polytope containing more than (1 - 1/k) * n points. The
verifier and the enumeration oracle give two independent routes to the
same counts and must never be merged.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, check_size_guard
from .geometry import (
    Halfspace,
    Orientation,
    OrientationFamily,
    Point,
    heavy_threshold_exceeded,
    kth_smallest,
    project,
    selection_rank,
)
from .pointfile import PointFile, point_columns

# Dot products of int64 columns stay exact below this product bound.
_INT64_SAFE = 2**62
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# Integers of smaller magnitude convert to float64 exactly.
_FLOAT64_EXACT = 2**53
# inf and nan projections would be compared as if they were numbers
_OVERFLOW = "a projection along {!r} overflows float64"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a strong-centerpoint check.

    When ``ok`` is false, ``witness_orientation`` is the first family
    orientation whose strict-below count crosses the containment threshold,
    and ``witness_count`` is that count.
    """

    ok: bool
    witness_orientation: Optional[Orientation] = None
    witness_count: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CenterpointCertificate:
    """Constructed halfspaces plus the membership evidence for the choice.

    halfspaces:     one minimal heavy halfspace per family orientation.
    region_members: indices of points inside all of them, ascending.
    chosen_index:   the lowest region member; the strong centerpoint.
    rank:           the 1-based order statistic defining each offset.
    point:          the chosen point itself.
    contains:       per halfspace, how many points it contains.
    """

    halfspaces: tuple
    region_members: tuple
    chosen_index: int
    rank: int
    point: Point
    contains: tuple


def _projection(columns, family: OrientationFamily):
    """``along(i)``, the projections of per-axis ``columns`` along
    orientation ``i`` of ``family``, built anew on each call; ValueError
    if one overflows float64.

    Columns stay int64 (exact) for integer instances inside overflow-safe
    bounds and use float64 for float instances. Object dtype takes the
    rest: oversized integers, and integers mixed with floats wherever
    float64 would round a sum that :func:`project` keeps exact.
    Accumulation is elementwise per axis so results equal :func:`project`,
    keeping certificate offsets and verifier counts agreed on exact ties.
    """
    cols = _column_arrays(columns, family)

    def along(index: int) -> np.ndarray:
        orientation = family[index]
        direction = orientation.direction
        # numpy checks the float status after object loops too, so
        # Python floats in object columns raise here as well
        try:
            with np.errstate(over="raise", invalid="raise"):
                arr = cols[0] * direction[0]
                for j in range(1, len(direction)):
                    arr = arr + cols[j] * direction[j]
        except FloatingPointError:
            raise ValueError(_OVERFLOW.format(orientation)) from None
        return arr

    return along


def _count_below(arr: np.ndarray, value) -> int:
    """How many projections in ``arr`` lie strictly below ``value``,
    compared exactly whatever the array's dtype."""
    strict = True
    if arr.dtype == np.int64:
        if isinstance(value, float):
            value = math.ceil(value)  # x < v  <=>  x < ceil(v), x integral
        if value > _INT64_MAX:
            return len(arr)
        if value < _INT64_MIN:
            return 0
    elif arr.dtype == np.float64 and isinstance(value, int):
        try:
            rounded = float(value)
        except OverflowError:
            return len(arr) if value > 0 else 0
        # no float lies strictly between an int and its nearest float
        strict = rounded >= value
        value = rounded
    below = arr < value if strict else arr <= value
    return int(np.count_nonzero(below))


def _column_arrays(columns, family: OrientationFamily) -> list:
    """int64, float64 or object arrays for ``columns`` (int64 arrays or
    sequences of Python numbers), chosen as :func:`_projection` describes."""
    dim = family.dim
    dir_bound = max((abs(c) for o in family if o.is_integral
                     for c in o.direction), default=0)
    if all(_holds_ints(col, all) for col in columns):
        coord_bound = max(map(_magnitude, columns))
        if (coord_bound + 1) * (dir_bound + 1) * dim < _INT64_SAFE:
            return [np.asarray(col, dtype=np.int64) for col in columns]
    else:
        try:
            arrays = [np.asarray(col, dtype=np.float64) for col in columns]
        except OverflowError:  # an int past float64
            pass
        else:
            # project() sums integer terms exactly; float64 agrees only
            # while every such partial sum stays below 2**53
            if (not dir_bound
                    or (max(float(np.abs(a).max()) for a in arrays) + 1)
                    * (dir_bound + 1) * dim < _FLOAT64_EXACT
                    or not any(_holds_ints(col, any) for col in columns)):
                return arrays
    return [np.asarray(col, dtype=object) for col in columns]


def _holds_ints(column, quantifier) -> bool:
    """``quantifier`` (all or any) of the column's values are ints."""
    if isinstance(column, np.ndarray):
        return column.dtype == np.int64
    return quantifier(map(isinstance, column, itertools.repeat(int)))


def _magnitude(column) -> int:
    if isinstance(column, np.ndarray):  # abs() would wrap at -2**63
        return max(int(column.max()), -int(column.min()))
    return max(map(abs, column))


def _projector_for(points, family: OrientationFamily):
    """``(n, point, along)``: the point count, ``point(i)`` returning
    input point ``i``, and the :func:`_projection` of ``points`` for
    ``family``; the one place that tells a Point sequence from a
    PointFile. A Point sequence is checked and turned into columns on every
    call, with a fresh ``along``. A PointFile is checked for dimension and
    keeps one memoized ``along`` per family: equal families project every
    point identically, so the family itself is the key."""
    dim = family.dim
    if not isinstance(points, PointFile):
        columns = point_columns(points, dim)
        return len(columns[0]), points.__getitem__, _projection(columns, family)
    if points.dim != dim:
        raise DimensionMismatchError(
            f"points have dimension {points.dim}, family has {dim}"
        )
    along = points.projectors.get(family)
    if along is None:
        along = functools.cache(_projection(points.columns, family))
        points.projectors[family] = along
    return len(points.columns[0]), points.point, along


def _below_counts(along, family: OrientationFamily, candidate: Point):
    """Per family orientation, in order, the orientation and how many
    points project strictly below ``candidate`` along it."""
    for i, o in enumerate(family):
        value = project(candidate, o)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(_OVERFLOW.format(o))
        yield o, _count_below(along(i), value)


def compute_strong_centerpoint(
    points: Union[Sequence[Point], PointFile],
    family: OrientationFamily,
) -> CenterpointCertificate:
    """Construct a strong centerpoint of ``points`` for ``family``.

    Cuts each orientation at the rank given by :func:`selection_rank` and
    returns the lowest-index point inside all k halfspaces, which is
    guaranteed to exist. Expected O(k * n) time. On a :class:`PointFile`
    each projection is built the first time a call reads it, and kept for
    later calls with the same family; a Point sequence is converted to
    columns on every call and, beyond them, holds one projection at a
    time: each is cut and counted before the next.
    """
    n, point, along = _projector_for(points, family)
    rank = selection_rank(n, family.k)
    inside = np.ones(n, dtype=bool)
    offsets, contains = [], []
    for i in range(family.k):
        projections = along(i)
        offsets.append(kth_smallest(projections, rank))
        within = np.asarray(projections <= offsets[i], dtype=bool)
        del projections  # free it before the next one is built
        contains.append(int(np.count_nonzero(within)))
        inside &= within
    members = np.flatnonzero(inside).tolist()
    assert members, "halfspace intersection missed every point"
    halfspaces = tuple(
        Halfspace(family[i], offsets[i]) for i in range(family.k)
    )
    chosen = members[0]
    return CenterpointCertificate(
        halfspaces=halfspaces,
        region_members=tuple(members),
        chosen_index=chosen,
        rank=rank,
        point=point(chosen),
        contains=tuple(contains),
    )


def verify_strong_centerpoint(
    points: Union[Sequence[Point], PointFile],
    family: OrientationFamily,
    candidate: Point,
) -> Verdict:
    """Exact check that ``candidate`` is a strong centerpoint of ``points``.

    Equivalent formulation used here: no orientation may have strictly more
    than (1 - 1/k) * n points projecting strictly below the candidate,
    because the worst avoiding polytope along a direction is the open
    halfspace just under the candidate. O(k * n), no tolerances. On a
    :class:`PointFile` each projection is built the first time a call
    reads it, and kept for later calls with the same family; a Point
    sequence is converted to columns on every call and, beyond them,
    holds one projection at a time.
    """
    n, _, along = _projector_for(points, family)
    for orientation, count in _below_counts(along, family, candidate):
        if heavy_threshold_exceeded(count, n, family.k):
            return Verdict(False, orientation, count)
    return Verdict(True)


def max_avoiding_count(
    points: Union[Sequence[Point], PointFile],
    family: OrientationFamily,
    candidate: Point,
) -> tuple[int, Orientation]:
    """The largest |C ∩ P| over family polytopes C avoiding ``candidate``.

    Halfspaces of one orientation are nested, so the maximum is realized by
    a single halfspace cut just below the candidate along some orientation.
    Returns that count and the first orientation achieving it.
    """
    _, _, along = _projector_for(points, family)
    orientation, count = max(
        _below_counts(along, family, candidate), key=lambda pair: pair[1]
    )
    return count, orientation


def brute_force_max_avoiding(
    points: Sequence[Point],
    family: OrientationFamily,
    candidate: Point,
) -> int:
    """Enumerate family polytopes over all candidate offsets; the maximum
    number of points in one avoiding ``candidate``.

    Independent oracle for :func:`max_avoiding_count`: it never uses the
    nesting argument, only raw enumeration over the offset grid built from
    the projection values of the points and the candidate, extended by a
    sentinel below and above. Exponential in k, guarded by cost estimate
    (n <= 12, k <= 3 stays comfortable). A projection that overflows
    float64 raises ValueError, checked here on its own.
    """
    n = len(points)
    k = family.k
    candidate_proj = [project(candidate, o) for o in family]
    projections = [[project(q, o) for q in points] for o in family]
    offset_grid = []
    for i, o in enumerate(family):
        values = [*projections[i], candidate_proj[i]]
        if not all(isinstance(v, int) or math.isfinite(v) for v in values):
            raise ValueError(_OVERFLOW.format(o))
        values = sorted(set(values))
        offset_grid.append([values[0] - 1] + values + [values[-1] + 1])
    cost = n * k
    for grid in offset_grid:
        cost *= len(grid)
    check_size_guard(cost)
    best = 0
    for offsets in itertools.product(*offset_grid):
        if all(candidate_proj[i] <= offsets[i] for i in range(k)):
            continue  # this polytope contains the candidate
        count = 0
        for j in range(n):
            for i in range(k):
                if projections[i][j] > offsets[i]:
                    break
            else:
                count += 1
        if count > best:
            best = count
    return best
