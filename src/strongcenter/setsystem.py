"""Strong centerpoints for abstract set systems with bounded intersection.

A system of order k promises that any k of its sets meet in at most one
element unless that intersection already equals the intersection of fewer
of them. A system stores its sets once, as CSR columns. The solver, which
builds no restricted system, the check, the text writer and the
brute-force oracle read them; the oracle intersects the heavy sets as
frozensets with no restriction and stays the independent route for tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError, check_size_guard
from .geometry import Point, heavy_threshold_exceeded, selection_rank
from .pointfile import format_number, point_columns, read_header

_KEYS = 2**63  # a key x * n + y with x < m, y < n fits int64 while m * n <= _KEYS
_RUN = 2**20  # the ids the check gathers at once from its crowded pair groups


class SetSystem:
    """Ground set 0..n-1 with distinct nonempty subsets and the order k.

    Sets are tuples of strictly ascending element ids. Use
    :meth:`from_sets` to canonicalize arbitrary iterables. The system
    stores only two CSR columns: ``ids``, int64 when every id is a plain
    int that fits, else an object array, and ``indptr``; set i is
    ``ids[indptr[i]:indptr[i + 1]]``. ``sets`` is cut from them on first
    read and kept; ``==``, ``hash`` and ``repr`` read ``(n, sets, k)``.
    """

    def __init__(self, n: int, sets, k: int):
        sets = list(map(tuple, sets))
        self._check(n, list(itertools.chain.from_iterable(sets)),
                    np.cumsum([0, *map(len, sets)], dtype=np.int64), k)

    @classmethod
    def _from_columns(cls, n: int, ids, indptr, k: int) -> "SetSystem":
        """The system of CSR columns, checked as the constructor checks."""
        system = cls.__new__(cls)
        system._check(n, ids, indptr, k)
        return system

    def _check(self, n, ids, indptr, k) -> None:
        """Store the columns and check them; a list of ids becomes int64
        when every id is a plain int that fits, else an object array."""
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"ground size must be a positive int, got {n!r}")
        if isinstance(k, bool) or not isinstance(k, int) or k < 2:
            raise ValueError(f"order k must be an int >= 2, got {k!r}")
        plain = True
        if isinstance(ids, list):
            plain = set(map(type, ids)) <= {int}
            try:
                ids = np.fromiter(ids, np.int64 if plain else object, len(ids))
            except OverflowError:
                ids = np.fromiter(ids, object, len(ids))
        self.n, self.k, self.ids, self.indptr = n, k, ids, indptr
        sizes = np.diff(indptr)
        valid = plain and sizes.all()
        if valid:
            rises = ids[1:] > ids[:-1]  # unlike np.diff, cannot wrap in int64
            rises[indptr[1:-1] - 1] = True  # pairs across two sets; starts: >= 0
            valid = (rises.all() and (ids[indptr[:-1]] >= 0).all()
                     and int(ids.max(initial=-1)) < n)
            for width in np.flatnonzero(np.bincount(sizes) > 1).tolist():
                # a repeated set is a repeated row of its size's (m x s) block
                block = ids[indptr[:-1][sizes == width, None] + np.arange(width)]
                block = block[np.lexsort(block.T)]
                valid = valid and not (block[1:] == block[:-1]).all(1).any()
        if not valid:  # the first faulty set names the error
            first = {}
            for index, s in enumerate(self.sets):
                if not s:
                    raise ValueError(f"set {index} is empty")
                for before, element in zip((-1,) + s, s):
                    if isinstance(element, bool) or not isinstance(element, int):
                        raise TypeError(
                            f"set {index} holds non-int element {element!r}")
                    if element <= before:
                        raise ValueError(f"set {index} is not strictly ascending")
                if s[-1] >= n:
                    raise ValueError(f"set {index} references element {s[-1]} "
                                     f"outside 0..{n - 1}")
                if first.setdefault(s, index) != index:
                    raise ValueError(f"set {index} duplicates an earlier set")

    @functools.cached_property
    def sets(self) -> tuple:
        """The sets as tuples of ids, cut from the columns on first read."""
        listed = self.ids.tolist()
        return tuple([tuple(listed[a:b])
                      for a, b in itertools.pairwise(self.indptr.tolist())])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.sets, self.k) == (other.n, other.sets, other.k)

    def __hash__(self) -> int:
        return hash((self.n, self.sets, self.k))

    def __repr__(self) -> str:
        return f"SetSystem(n={self.n!r}, sets={self.sets!r}, k={self.k!r})"

    @classmethod
    def from_sets(cls, n: int, sets, k: int) -> "SetSystem":
        """Build a system from arbitrary iterables: members are sorted and
        deduplicated, empty sets and repeated sets are dropped."""
        canonical = dict.fromkeys(tuple(sorted(set(s))) for s in sets)
        canonical.pop((), None)
        return cls(n, tuple(canonical), k)


@dataclass(frozen=True)
class AbstractResult:
    """Solver outcome: an element of every heavy set, or a witness there is none.

    ``element`` is the found ground id, or None. On failure ``witness``
    lists the input's heavy set indices, whose common intersection is
    empty. ``trace`` is ``((n, None),)``, or ``((n, c), (|C|, None))`` at
    order k >= 3 with heavy sets, C the largest (ties to the lowest index
    c): the restriction to C is read in place, never built.
    """

    element: Optional[int]
    witness: Optional[tuple]
    trace: tuple

    @property
    def found(self) -> bool:
        return self.element is not None


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
    restricted = ((forward[e] for e in s if e in forward) for s in system.sets)
    return SetSystem.from_sets(len(base), restricted, system.k - 1), base


def _shared(ids, sizes, chosen) -> np.ndarray:
    """The ids in every chosen set, ascending: as no set repeats an id,
    those are the ids counted once per chosen set."""
    values, counts = np.unique(ids[np.repeat(chosen, sizes)], return_counts=True)
    return values[counts == np.count_nonzero(chosen)]


def strong_centerpoint(system: SetSystem) -> AbstractResult:
    """Find an element contained in every heavy set of the system.

    ``common`` is the intersection of the input's heavy sets. At order
    k >= 3 the restriction to the largest heavy set C (ties to the lowest
    index) defines the trace ``((n, chosen), (|C|, None))``, else it is
    ``((n, None),)``: C becomes the whole restricted ground set, so levels
    k - 1 down to 3 would only lower the order. The restricted sets heavy
    at order 2, the S ∩ C with 2|S ∩ C| > |C|, meet in ``deeper``, inside
    ``common`` as each heavy S is among them when k >= 3. The smallest
    element of ``deeper`` wins, else of ``common``; with neither, the
    witness lists the heavy set indices. Nothing raises or re-checks the
    property. No restricted system is built: ids are found in C by binary
    search and |S ∩ C| summed per set. ``np.unique`` sorts, so the cost is
    O(Σ|S| log Σ|S|) time and O(Σ|S|) memory, with nothing of length n.
    """
    n, ids, indptr = system.n, system.ids, system.indptr
    sizes = np.diff(indptr)
    # capped by len(ids) + 1, which no size reaches, to stay in int64
    heavy = sizes >= min(selection_rank(n, system.k), len(ids) + 1)
    if not heavy.any():
        return AbstractResult(0, None, ((n, None),))
    common, deeper, trace = _shared(ids, sizes, heavy), (), ((n, None),)
    if system.k > 2:
        chosen = int(np.argmax(np.where(heavy, sizes, 0)))
        base = ids[indptr[chosen] : indptr[chosen + 1]]
        inside = base[np.minimum(np.searchsorted(base, ids), len(base) - 1)] == ids
        deep = 2 * np.add.reduceat(inside, indptr[:-1]) > len(base)
        deeper = _shared(ids, sizes, deep)  # C is deep, so deeper lies in C
        trace = ((n, chosen), (len(base), None))
    elements = deeper if len(deeper) else common
    if len(elements):
        return AbstractResult(int(elements[0]), None, trace)
    return AbstractResult(None, tuple(np.flatnonzero(heavy).tolist()), trace)


def brute_force_strong_centerpoints(system: SetSystem) -> list[int]:
    """All elements contained in every heavy set, ascending; [] means none.

    With no heavy set every element qualifies. Independent of the solver
    by construction: heaviness depends only on |S|, so it is tested by
    cross-multiplication once per set size present, into a table indexed
    by size (never by n). The heavy sets are cut from the CSR columns and
    intersected as frozensets, with no restriction; ``sets`` is not read.
    The guard prices that: m sets, plus Σ|S| of the heavy or else n ids.
    """
    n, ids, indptr = system.n, system.ids, system.indptr
    sizes = np.diff(indptr)
    table = np.bincount(sizes).astype(bool)  # the sizes present, then the heavy
    for size in np.flatnonzero(table).tolist():
        table[size] = heavy_threshold_exceeded(size, n, system.k)
    chosen = np.flatnonzero(table[sizes])
    check_size_guard(len(sizes) + (int(sizes[chosen].sum()) if len(chosen) else n))
    heavy = [frozenset(ids[indptr[i] : indptr[i + 1]].tolist())
             for i in chosen.tolist()]
    return sorted(frozenset.intersection(*heavy)) if heavy else list(range(n))


def _violates(members, combo) -> bool:
    """Whether k >= 3 sets meet in elements that no leave-one-out sub-tuple
    already meets in. The sets come from one pair group, so they share its
    pair and meet in two or more elements."""
    common = frozenset.intersection(*(members[i] for i in combo))
    # equality with a sub-tuple of >= 2 sets implies equality with a
    # leave-one-out intersection containing it, so checking those k
    # (k-1)-tuples suffices
    return all(
        frozenset.intersection(*(members[i] for i in combo if i != skip))
        != common
        for skip in combo
    )


def _runs(*columns) -> tuple:
    """``(starts, lengths)`` of the runs of equal rows in sorted columns."""
    edge = np.ones(len(columns[0]), bool)
    edge[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in columns])
    starts = np.flatnonzero(edge)
    return starts, np.diff(starts, append=len(edge))


def _past(last, end) -> tuple:
    """Per row i: how many j have last[i] < j < end[i], and those j, row by row."""
    count = end - last - 1
    back = np.repeat(np.cumsum(count) - count - last - 1, count)
    return count, np.subtract(np.arange(len(back)), back, out=back)


def check_bounded_intersection(
    system: SetSystem, budget: Optional[int] = None
) -> Optional[tuple]:
    """First k-tuple of set indices violating bounded intersection, or None.

    A k-tuple passes when its common intersection has at most one element
    or equals the intersection of some proper sub-tuple of two or more of
    its sets; a single set is not an escape, so at order 2 any pair
    sharing two elements violates, nested or not. Only sets that share an
    element pair can violate, so each id a of the ``ids`` column and every
    later id b of its set make one int64 key a * n + b, Σ C(|S|, 2) keys
    (ids are ranked first if objects or if n * n passes int64); after one
    stable sort each run of equal keys is a pair group, in set order. At
    order 2 the answer is the smallest first two sets of a pair group. At
    order k >= 3 a pair group L of at least k sets passes when its sets
    all meet pairwise in one core, as every k-tuple then meets in a pair's
    intersection: exactly when each id of its sets lies in all |L| of them
    or in one. Runs of whole groups, about _RUN ids each (a larger group
    alone), are each tested by one sort of the keys local group * n + id,
    Σ_{S in L} |S| in all. The k-tuples of the failing groups are tested
    on frozensets, Σ C(|L|, k) * k * n more. All three costs are guarded.
    The lexicographically first violating tuple is returned; fewer than k
    sets pass vacuously.
    """
    k, n, ids, indptr = system.k, system.n, system.ids, system.indptr
    if len(indptr) - 1 < k:
        return None
    sizes = np.diff(indptr)
    pairs = sizes * (sizes - 1) // 2
    insertions = int(pairs.sum())
    check_size_guard(insertions, budget)
    if ids.dtype == object or n * n > _KEYS:  # ranks keep equality and order
        uniques, ids = np.unique(ids, return_inverse=True)
        n = len(uniques)
    count, after = _past(np.arange(len(ids)), np.repeat(indptr[1:], sizes))
    key = np.repeat(ids * n, count)
    key += ids[after]
    order = np.argsort(key, kind="stable")  # equal keys stay in set order
    starts, lengths = _runs(key[order])
    sets = len(sizes)  # each pair's set, in the smallest dtype holding them
    owner = np.repeat(np.arange(sets, dtype=np.min_scalar_type(sets)), pairs)
    if k == 2:
        shared = starts[lengths > 1]
        return min(zip(owner[order[shared]].tolist(),
                       owner[order[shared + 1]].tolist()), default=None)
    crowded = lengths >= k
    listed = owner[order[np.repeat(crowded, lengths)]]
    del count, after, key, order, owner  # lowers the peak
    span, held = lengths[crowded], sizes[listed]
    cost = insertions + int(held.sum())
    check_size_guard(cost, budget)
    bounds = np.append(0, np.cumsum(span))  # each group's start in listed
    reach = np.append(0, np.cumsum(held))[bounds]  # and among its sets' ids
    bad, first = np.zeros(len(span), bool), 0
    while first < len(span):  # a run of whole groups: about _RUN ids, keys < _KEYS
        last = int(np.searchsorted(reach, reach[first] + _RUN, "right")) - 1
        last = min(max(first + 1, last), first + max(1, _KEYS // n))
        chosen = listed[bounds[first] : bounds[last]]
        key = ids[_past(indptr[chosen] - 1, indptr[chosen + 1])[1]]
        group = np.repeat(np.repeat(np.arange(last - first), span[first:last]),
                          sizes[chosen])
        key += np.multiply(group, n, out=group)  # local group * n + id
        key.sort()
        starts, runs = _runs(key)
        group = first + key[starts] // n
        bad[group[(runs != 1) & (runs != span[group])]] = True
        first = last
    failing = np.flatnonzero(bad)
    groups = [listed[a:b].tolist() for a, b in
              zip(bounds[failing].tolist(), bounds[failing + 1].tolist())]
    tuples = sum(math.comb(len(g), k) for g in groups)
    check_size_guard(cost + tuples * k * system.n, budget)
    members = {s: frozenset(ids[indptr[s] : indptr[s + 1]].tolist())
               for g in groups for s in g}
    firsts = (next((c for c in itertools.combinations(g, k)
                    if _violates(members, c)), None) for g in groups)
    return min(filter(None, firsts), default=None)


def hyperplane_system(points: Sequence[Point], dim: int) -> SetSystem:
    """Incidence system of the hyperplanes spanned by a point set.

    Each hyperplane through ``dim`` affinely independent points contributes
    the set of all point indices incident to it; the system's order is
    ``dim``, matching how many such sets can share more than one point
    without sharing their whole flat. When no ``dim`` points span a
    hyperplane (n <= dim, or every point on one lower-dimensional flat),
    all points lie on one common hyperplane, so the system is the single
    set of all indices. Incidence is exact: coordinates are scaled by one
    common power of two into integers, and one numpy pass keys each d-tuple
    of point indices by its normal (gcd-reduced, first nonzero component
    positive) and offset, in int64 while the coordinate bound keeps them
    below 2**62, else in Python ints. A d-tuple through a repeated point
    has a zero normal and drops; each point of a flat lies in some
    affinely independent d-tuple of it, so the spans list every member.
    A flat's first span is the greedy tuple of its members (the least, then
    each least one off the span so far), so one sort of (first span, id)
    pairs puts the sets in tuple order, as CSR columns. The C(n, d) spans
    are size-guarded, repeated points included; memory grows with them.
    """
    k = operator.index(dim) if hasattr(type(dim), "__index__") else None
    if isinstance(dim, bool) or k not in (2, 3):
        raise ValueError(f"supported dimensions are 2 and 3, got {dim!r}")
    columns = point_columns(list(points), k)
    n = len(columns[0])
    check_size_guard(math.comb(n, k))
    ratios = [[x.as_integer_ratio() for x in col] for col in columns]
    scale = max(d for r in ratios for _, d in r)  # a finite float is num / 2**e
    scaled = [[num * (scale // d) for num, d in r] for r in ratios]
    bound = max(map(abs, itertools.chain.from_iterable(scaled)))
    # |normal| <= (k - 1)! (2 bound)**(k - 1), |offset| <= k |normal| bound
    normal_bound = math.factorial(k - 1) * (2 * bound) ** (k - 1)
    coords = np.array(scaled, np.int64 if normal_bound < 2**62 else object)
    spans = np.array(np.triu_indices(n, 1))  # index tuples, lexicographic
    if k == 3:  # each pair (i, j), then every third index past j
        count, after = _past(spans[1], n)
        spans = np.vstack((np.repeat(spans, count, axis=1), after))
    anchor = coords.take(spans[0], 1)
    u = coords.take(spans[1], 1) - anchor
    v = coords.take(spans[2], 1) - anchor if k == 3 else None
    normal = np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                       u[0] * v[1] - u[1] * v[0]] if k == 3 else [u[1], -u[0]])
    g = functools.reduce(np.gcd, normal)
    keep = g != 0
    if not keep.any():  # no d points span: all lie on one common hyperplane
        return SetSystem(n, (tuple(range(n)),), k)
    spans, anchor, normal, g = (a.compress(keep, -1)
                                for a in (spans, anchor, normal, g))
    lead = functools.reduce(lambda a, b: np.where(a, a, b), normal)  # first nonzero
    normal //= np.where(lead < 0, -g, g)
    wide = k * normal_bound * bound >= 2**62
    keys = [*normal, sum((c.astype(object) if wide else c) * x
                         for c, x in zip(normal, anchor))]
    dims = [] if wide else [int(c.max() - c.min()) + 1 for c in keys]
    if dims and math.prod(dims) < 2**63:  # one packed key; flats in any order
        keys = [np.ravel_multi_index([c - c.min() for c in keys], dims)]
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    starts, lengths = _runs(*(c[order] for c in keys))
    first = np.minimum.reduceat(order, starts)  # first span; argsort is unstable
    members = (spans.take(order, 1) + np.repeat(first, lengths) * n).ravel()
    del spans, anchor, u, v, g, lead, normal, keys, order, first  # lowers the peak
    members.sort()
    flat, ids = np.divmod(members[np.diff(members, prepend=-1) != 0], n)
    indptr = np.append(np.flatnonzero(np.diff(flat, prepend=-1)), len(ids))
    return SetSystem._from_columns(n, ids, indptr, k)


def format_set_system(system: SetSystem) -> str:
    """Text form: header ``n k``, then one set per line, ids ascending."""
    listed = system.ids.tolist()
    lines = [f"{system.n} {system.k}"]
    lines.extend(" ".join(map(format_number, listed[a:b]))
                 for a, b in itertools.pairwise(system.indptr.tolist()))
    return "\n".join(lines) + "\n"


def parse_set_system(text: str) -> SetSystem:
    """Parse the text form of a set system; inverse of
    :func:`format_set_system` on canonical input."""
    lines, n, k = read_header(text, "set-system file", "n k")
    ids, sizes = [], [0]
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            raise ParseError(f"line {line_no}: empty set")
        try:
            ids.extend(map(int, parts))
        except ValueError:
            raise ParseError(f"line {line_no}: element ids must be integers") from None
        sizes.append(len(parts))
    try:
        return SetSystem._from_columns(n, ids, np.cumsum(sizes, dtype=np.int64), k)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
