"""Seeded inputs for the benchmark workloads, made without the program.

Everything here is plain coordinates (numpy arrays or tuples of Python
ints and floats). The program's own generators are never called, so a
change to ``strongcenter.generators`` cannot change what is measured. The
same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Sizes of each workload. They are chosen so that one round of a workload
# takes a few seconds on a 2-core machine, which gives several rounds per
# run for the medians.
CLI_POINTS = 60_000
CLI_COORD = 1000
API_POINTS = 300_000
LINE_POINTS = 64
PLANE_POINTS = 27

# Streams per workload, so one workload's inputs never shift another's.
_STREAM = {"cli-int": 1, "api-float": 2, "lines": 3, "planes": 4}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[stream]])


def cli_points(seed: int, n: int = CLI_POINTS) -> np.ndarray:
    """n integer points in 3-D with coordinates in [-CLI_COORD, CLI_COORD]."""
    return _rng(seed, "cli-int").integers(
        -CLI_COORD, CLI_COORD + 1, size=(n, 3), dtype=np.int64
    )


def point_file_text(coords: np.ndarray) -> str:
    """The point-file format: a ``d n`` header, then one row per point."""
    n, d = coords.shape
    rows = [" ".join(map(str, row)) for row in coords.tolist()]
    return f"{d} {n}\n" + "\n".join(rows) + "\n"


def cli_far_candidate(seed: int) -> tuple:
    """A point beyond every input along +x, so ``verify`` must reject it."""
    y, z = _rng(seed, "cli-int").integers(-CLI_COORD, CLI_COORD + 1, size=2)
    return (CLI_COORD + 1, int(y), int(z))


def api_points(seed: int, n: int = API_POINTS) -> np.ndarray:
    """n float points in the plane, normally spread around the origin."""
    return _rng(seed, "api-float").normal(0.0, 1000.0, size=(n, 2))


def api_order(seed: int, round_index: int, n: int = API_POINTS) -> np.ndarray:
    """The order in which one round presents the api-float points.

    Selection by quickselect does more or less work depending on the order
    of its input, so each round draws a fresh order; the median over
    rounds then does not hang on one draw.
    """
    return np.random.default_rng([seed, _STREAM["api-float"], round_index]).permutation(n)


def api_far_candidates(seed: int) -> list:
    """Two float points far outside the cloud, in seeded directions."""
    angles = _rng(seed, "api-float").uniform(0.0, 2.0 * np.pi, size=2)
    return [
        (float(1e6 * np.cos(a)), float(1e6 * np.sin(a))) for a in angles
    ]


@dataclass(frozen=True)
class Probe:
    """A fixed integer instance near 2**53 with a float candidate.

    ``directions`` are integer facet normals. The true verdict comes from
    exact Python int-versus-float comparison; the inputs never depend on
    the seed.
    """

    name: str
    coords: tuple
    directions: tuple
    candidate: tuple


def exactness_probes() -> list:
    big = 2**53
    # 1-D: every point lies strictly below the candidate, so the candidate
    # must be rejected; rounding 2**53 + 3 to float64 gives 2**53 + 4,
    # which is not below it.
    one_d = Probe(
        "probe-1d",
        ((big + 3,),) * 3 + ((0,),),
        ((1,), (-1,)),
        (9007199254740996.0,),
    )
    # 2-D: all 1000 points lie below x = c exactly, but the 131 points at
    # c - 1 round up to c in float64 (ties to even), so a rounded count
    # gives the right verdict with a wrong witness count.
    c = big + 1000
    coords = [(c - 1, j % 7 - 3) for j in range(131)]
    coords += [(big + 2 * (j % 500), j % 5 - 2) for j in range(869)]
    two_d = Probe(
        "probe-2d",
        tuple(coords),
        ((1, 0), (-1, 0), (0, 1), (0, -1)),
        (float(c), 0.0),
    )
    return [one_d, two_d]


@dataclass(frozen=True)
class Planted:
    """Distinct integer points with a planted heavy flat.

    ``flat`` holds the indices on the planted line (2-D) or plane (3-D);
    ``line`` the indices on a line planted inside that plane (3-D only).
    Index 0 is never on the planted flat, so a solver that answers 0
    without looking cannot pass the checks.
    """

    coords: tuple
    flat: frozenset
    line: frozenset


def _shuffled(rng, line, plane, rest) -> Planted:
    """Shuffle the points, tracking the planted ones, and move a point off
    the planted flat to index 0."""
    coords = line + plane + rest
    order = rng.permutation(len(coords)).tolist()  # order[new] = old
    on_flat = len(line) + len(plane)
    first_off = next(i for i, old in enumerate(order) if old >= on_flat)
    order[0], order[first_off] = order[first_off], order[0]
    return Planted(
        tuple(coords[old] for old in order),
        frozenset(i for i, old in enumerate(order) if old < on_flat),
        frozenset(i for i, old in enumerate(order) if old < len(line)),
    )


def _primitive(rng, low: int, high: int, size: int) -> tuple:
    while True:
        v = rng.integers(low, high + 1, size=size)
        if np.gcd.reduce(np.abs(v)) == 1:
            return tuple(int(x) for x in v)


def planted_line(seed: int, n: int = LINE_POINTS) -> Planted:
    """n points in the plane, n // 2 + 1 of them on one line."""
    rng = _rng(seed, "lines")
    on_line = n // 2 + 1
    base = tuple(int(x) for x in rng.integers(-50, 51, size=2))
    step = _primitive(rng, -3, 3, 2)
    ts = rng.choice(np.arange(-40, 41), size=on_line, replace=False)
    line = [(base[0] + int(t) * step[0], base[1] + int(t) * step[1]) for t in ts]
    seen = set(line)
    rest = []
    while len(rest) < n - on_line:
        p = tuple(int(x) for x in rng.integers(-400, 401, size=2))
        off = (p[0] - base[0]) * step[1] - (p[1] - base[1]) * step[0]
        if off != 0 and p not in seen:
            seen.add(p)
            rest.append(p)
    return _shuffled(rng, line, [], rest)


def planted_plane(seed: int, n: int = PLANE_POINTS) -> Planted:
    """n points in space: 2n // 3 + 1 on one plane, and more than half of
    those on one line inside it, so the solver recurses through both."""
    rng = _rng(seed, "planes")
    on_plane = 2 * n // 3 + 1
    on_line = on_plane // 2 + 1
    origin = np.array(rng.integers(-20, 21, size=3))
    while True:
        e1 = np.array(_primitive(rng, -2, 2, 3))
        e2 = np.array(_primitive(rng, -2, 2, 3))
        normal = np.cross(e1, e2)
        if normal.any():
            break

    def at(s, t):
        return tuple(int(x) for x in origin + s * e1 + t * e2)

    line = [at(int(s), 0) for s in rng.choice(np.arange(-12, 13), on_line, replace=False)]
    seen = set(line)
    plane = []
    while len(plane) < on_plane - on_line:
        s, t = (int(x) for x in rng.integers(-8, 9, size=2))
        p = at(s, t)
        if t != 0 and p not in seen:
            seen.add(p)
            plane.append(p)
    rest = []
    while len(rest) < n - on_plane:
        p = tuple(int(x) for x in rng.integers(-30, 31, size=3))
        if int(np.dot(normal, np.array(p) - origin)) != 0 and p not in seen:
            seen.add(p)
            rest.append(p)
    return _shuffled(rng, line, plane, rest)
