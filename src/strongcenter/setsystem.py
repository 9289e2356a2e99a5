"""Strong centerpoints for abstract set systems with bounded intersection.

A system of order k promises that any k of its sets meet in at most one
element unless that intersection already equals the intersection of fewer
of them. The solver intersects the input's heavy sets, and at order
k >= 3 restricts once to the largest heavy set, which then is the whole
ground set and stays the largest heavy set at every lower order, so the
levels down to order 2 change nothing but the order. It prefers the
common elements of the restricted sets heavy at order 2, which lie inside
the input's heavy intersection, and falls back to that intersection; when
both are empty its witness names the input's heavy sets. The brute-force
oracle intersects heavy sets with no restriction at all and stays the
independent route for tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DimensionMismatchError, ParseError, check_size_guard
from .geometry import Point, heavy_threshold_exceeded


@dataclass(frozen=True)
class SetSystem:
    """Ground set 0..n-1 with distinct nonempty subsets and the order k.

    Sets are tuples of strictly ascending element ids. Use
    :meth:`from_sets` to canonicalize arbitrary iterables.
    """

    n: int
    sets: tuple
    k: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"ground size must be a positive int, got {self.n!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"order k must be an int >= 2, got {self.k!r}")
        sets = tuple(tuple(s) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        seen = set()
        for index, s in enumerate(sets):
            if not s:
                raise ValueError(f"set {index} is empty")
            previous = -1
            for element in s:
                if isinstance(element, bool) or not isinstance(element, int):
                    raise TypeError(
                        f"set {index} holds non-int element {element!r}"
                    )
                if element <= previous:
                    raise ValueError(
                        f"set {index} is not strictly ascending"
                    )
                previous = element
            if s[-1] >= self.n:
                raise ValueError(
                    f"set {index} references element {s[-1]} outside "
                    f"0..{self.n - 1}"
                )
            if s in seen:
                raise ValueError(f"set {index} duplicates an earlier set")
            seen.add(s)

    @classmethod
    def from_sets(cls, n: int, sets, k: int) -> "SetSystem":
        """Build a system from arbitrary iterables: members are sorted and
        deduplicated, empty sets and repeated sets are dropped."""
        canonical = []
        seen = set()
        for s in sets:
            t = tuple(sorted(set(s)))
            if t and t not in seen:
                seen.add(t)
                canonical.append(t)
        return cls(n, tuple(canonical), k)


@dataclass(frozen=True)
class AbstractResult:
    """Solver outcome: an element of every heavy set, or a witness there is none.

    ``element`` is the found ground id, or None. On failure ``witness``
    lists the input's heavy set indices, whose common intersection is
    empty.
    ``trace`` records one (ground size, chosen set index) pair per level
    the solver visits: the input and, when it restricts, the restricted
    system; the chosen index is None at the last level.
    """

    element: Optional[int]
    witness: Optional[tuple]
    trace: tuple

    @property
    def found(self) -> bool:
        return self.element is not None


def _heavy_indices(system: SetSystem) -> list[int]:
    return [
        i
        for i, s in enumerate(system.sets)
        if heavy_threshold_exceeded(len(s), system.n, system.k)
    ]


def restrict(system: SetSystem, set_index: int) -> tuple[SetSystem, tuple]:
    """Restrict the system to one of its sets, lowering the order by one.

    Returns ``(restricted, back_ids)``: ground elements of the chosen set
    are re-indexed by ascending original id and ``back_ids`` maps them
    home. Every set contributes its intersection with the chosen set;
    empty intersections drop and duplicates merge, first occurrence first.
    The chosen set itself survives as the full restricted ground set.
    Requires order at least 3.
    """
    if not 0 <= set_index < len(system.sets):
        raise ValueError(f"set index {set_index} out of range")
    if system.k < 3:
        raise ValueError("cannot lower the order below 2")
    base = system.sets[set_index]
    forward = {element: i for i, element in enumerate(base)}
    restricted = SetSystem.from_sets(
        len(base),
        ((forward[e] for e in s if e in forward) for s in system.sets),
        system.k - 1,
    )
    return restricted, base


def strong_centerpoint(system: SetSystem) -> AbstractResult:
    """Find an element contained in every heavy set of the system.

    ``common`` is the intersection of the input's heavy sets. At order
    k >= 3 the system is restricted once to the largest heavy set (ties
    to the lowest index). The chosen set becomes the whole restricted
    ground set, the unique largest set and heavy at every order, so each
    level from k - 1 down to 3 would restrict to it again and change only
    the order; the trace skips those levels and reads
    ``((n, chosen), (|C|, None))``, or ``((n, None),)`` when nothing is
    restricted. The restricted sets heavy at order 2 meet in ``deeper``,
    mapped home through the recorded ground ids. Each input heavy set S
    is heavy at order 2 once restricted to the chosen set C, since
    |S ∩ C| > |C| - n/k >= |C|/2 when k >= 3, so ``deeper`` lies inside
    ``common``. The smallest element of ``deeper`` wins, else that of
    ``common``; with neither, the witness lists the input's heavy set
    indices. The bounded-intersection property is not re-checked and
    nothing raises; the cost is O(Σ|S|) at every order.
    """
    heavy = _heavy_indices(system)
    if not heavy:
        return AbstractResult(0, None, ((system.n, None),))
    common = frozenset.intersection(
        *(frozenset(system.sets[i]) for i in heavy)
    )
    trace = ((system.n, None),)
    deeper = frozenset()
    if system.k > 2:
        chosen = max(heavy, key=lambda i: (len(system.sets[i]), -i))
        restricted, back_ids = restrict(system, chosen)
        trace = ((system.n, chosen), (restricted.n, None))
        deeper = frozenset.intersection(
            *(
                frozenset(back_ids[e] for e in s)
                for s in restricted.sets
                if heavy_threshold_exceeded(len(s), restricted.n, 2)
            )
        )
    elements = deeper or common
    if elements:
        return AbstractResult(min(elements), None, trace)
    return AbstractResult(None, tuple(heavy), trace)


def brute_force_strong_centerpoints(
    system: SetSystem, budget: Optional[int] = None
) -> list[int]:
    """All elements contained in every heavy set, ascending; [] means none.

    With no heavy set every element qualifies. Independent of the solver
    by construction: one pass over set sizes, one intersection, no
    restriction.
    """
    cost = system.n * max(1, len(system.sets))
    check_size_guard(cost, budget)
    heavy = _heavy_indices(system)
    if not heavy:
        return list(range(system.n))
    common = frozenset.intersection(
        *(frozenset(system.sets[i]) for i in heavy)
    )
    return sorted(common)


def _violates(members, combo) -> bool:
    """Whether k >= 3 sets meet in two or more elements that no
    leave-one-out sub-tuple already meets in."""
    common = frozenset.intersection(*(members[i] for i in combo))
    if len(common) <= 1:
        return False
    # equality with a sub-tuple of >= 2 sets implies equality with a
    # leave-one-out intersection containing it, so checking those k
    # (k-1)-tuples suffices
    return all(
        frozenset.intersection(*(members[i] for i in combo if i != skip))
        != common
        for skip in combo
    )


def _one_core(members, group) -> bool:
    """Whether the sets of ``group`` all meet pairwise in one common core:
    each holds the first two sets' intersection, and their parts outside
    it are pairwise disjoint. Linear in the group's total set size."""
    core = members[group[0]] & members[group[1]]
    if not all(core <= members[i] for i in group):
        return False
    outside = [members[i] - core for i in group]
    return len(frozenset().union(*outside)) == sum(map(len, outside))


def check_bounded_intersection(
    system: SetSystem, budget: Optional[int] = None
) -> Optional[tuple]:
    """First k-tuple of set indices violating bounded intersection, or None.

    A k-tuple passes when its common intersection has at most one element
    or equals the intersection of some proper sub-tuple of two or more of
    its sets; a single set is not an escape, so at order 2 any pair
    sharing two elements violates, nested or not. Only sets that share an
    element pair can violate, so the sets are indexed by the element pairs
    they hold, Σ C(|S|, 2) insertions. At order 2 the answer is the
    smallest first two sets of a pair group. At order k >= 3 a pair group
    L of at least k sets passes when its sets all meet pairwise in one
    core, as every k-tuple then meets in a pair's intersection; that test
    costs Σ_{S in L} |S|. The k-tuples inside every other group are
    tested, Σ C(|L|, k) * k * n more. All three costs are guarded. The
    lexicographically first violating tuple is returned; fewer than k
    sets pass vacuously.
    """
    k = system.k
    if len(system.sets) < k:
        return None
    insertions = sum(math.comb(len(s), 2) for s in system.sets)
    check_size_guard(insertions, budget)
    groups: dict = {}
    for index, s in enumerate(system.sets):
        for pair in itertools.combinations(s, 2):
            groups.setdefault(pair, []).append(index)
    if k == 2:
        return min(
            ((g[0], g[1]) for g in groups.values() if len(g) > 1), default=None
        )
    crowded = [g for g in groups.values() if len(g) >= k]
    cost = insertions + sum(len(system.sets[i]) for g in crowded for i in g)
    check_size_guard(cost, budget)
    members = [frozenset(s) for s in system.sets]
    crowded = [g for g in crowded if not _one_core(members, g)]
    tuples = sum(math.comb(len(g), k) for g in crowded)
    check_size_guard(cost + tuples * k * system.n, budget)
    firsts = (
        next(
            (c for c in itertools.combinations(g, k) if _violates(members, c)),
            None,
        )
        for g in crowded
    )
    return min(filter(None, firsts), default=None)


def _integer_coords(points) -> list:
    """Coordinates scaled by one common power of two into exact ints:
    every finite float is an integer over a power of two."""
    ratios = [[x.as_integer_ratio() for x in p.coords] for p in points]
    scale = max(d for r in ratios for _, d in r)
    return [tuple(num * (scale // d) for num, d in r) for r in ratios]


def _flat_key(span):
    """Canonical ``normal + (offset,)`` of the hyperplane through ``dim``
    integer locations, the normal gcd-reduced with its first nonzero
    component positive; None if they do not span one."""
    anchor = span[0]
    u = [x - y for x, y in zip(span[1], anchor)]
    if len(span) == 2:
        normal = (-u[1], u[0])
    else:
        v = [x - y for x, y in zip(span[2], anchor)]
        normal = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
    g = math.gcd(*normal)
    if g == 0:
        return None
    if next(filter(None, normal)) < 0:
        g = -g
    normal = tuple(c // g for c in normal)
    return normal + (sum(c * x for c, x in zip(normal, anchor)),)


def hyperplane_system(
    points: Sequence[Point], dim: int, budget: Optional[int] = None
) -> SetSystem:
    """Incidence system of the hyperplanes spanned by a point set.

    Each hyperplane through ``dim`` affinely independent points contributes
    the set of all point indices incident to it; the system's order is
    ``dim``, matching how many such sets can share more than one point
    without sharing their whole flat. When n <= dim all points lie on one
    common hyperplane, so the system is the single set of all indices.
    Incidence is exact, with no tolerance: all coordinates are scaled by
    one common power of two into integers, so float points are incident
    only when they lie on the hyperplane exactly. Each d-tuple of distinct
    locations that spans a hyperplane is keyed by its canonical normal and
    offset, and each set gathers the points at the locations of one key.
    The C(n, d) spans are size-guarded.
    """
    if dim not in (2, 3):
        raise ValueError(f"supported dimensions are 2 and 3, got {dim!r}")
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty point set")
    for index, p in enumerate(pts):
        if not isinstance(p, Point):
            raise TypeError(f"points[{index}] is not a Point")
        if p.dim != dim:
            raise DimensionMismatchError(
                f"points[{index}] has dimension {p.dim}, expected {dim}"
            )
    check_size_guard(math.comb(n, dim), budget)
    if n <= dim:
        return SetSystem(n, (tuple(range(n)),), dim)
    at: dict = {}  # distinct location -> the indices of its points
    for index, location in enumerate(_integer_coords(pts)):
        at.setdefault(location, []).append(index)
    locations = list(at)
    flats: dict = {}
    for span in itertools.combinations(range(len(locations)), dim):
        key = _flat_key([locations[i] for i in span])
        if key is None:
            continue
        # spans come in lexicographic order: a flat's first span starts at
        # its lowest location, and the spans starting there cover the flat
        members = flats.setdefault(key, [span[0]])
        if members[0] == span[0]:
            members.extend(span[1:])
    ids = list(at.values())
    sets = sorted(
        tuple(sorted(i for j in set(m) for i in ids[j])) for m in flats.values()
    )
    return SetSystem(n, tuple(sets), dim)


def format_set_system(system: SetSystem) -> str:
    """Text form: header ``n k``, then one set per line, ids ascending."""
    lines = [f"{system.n} {system.k}"]
    lines.extend(" ".join(str(e) for e in s) for s in system.sets)
    return "\n".join(lines) + "\n"


def parse_set_system(text: str) -> SetSystem:
    """Parse the text form of a set system; inverse of
    :func:`format_set_system` on canonical input."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty set-system file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n k'")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must hold two integers") from None
    sets = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            raise ParseError(f"line {line_no}: empty set")
        try:
            sets.append(tuple(int(part) for part in parts))
        except ValueError:
            raise ParseError(
                f"line {line_no}: element ids must be integers"
            ) from None
    try:
        return SetSystem(n, tuple(sets), k)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
