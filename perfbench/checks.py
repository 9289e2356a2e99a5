"""Checks of the program's answers, computed apart from the program.

Every expectation here comes from the benchmark's own coordinates with
numpy or plain Python: projections, order statistics, exact counts and
integer cross products. Nothing is compared with a stored copy of earlier
output. Each check returns a list of problems; an empty list means the
answer is right.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def selection_rank(n: int, k: int) -> int:
    """n - ceil(n/k) + 1: the order statistic each halfspace is cut at."""
    return n - (n + k - 1) // k + 1


def heavy(size: int, n: int, k: int) -> bool:
    """Whether ``size`` exceeds (1 - 1/k) * n, in integers."""
    return k * size > (k - 1) * n


def project(coords: np.ndarray, directions) -> np.ndarray:
    """k x n projections, accumulated axis by axis as ``x*u0 + y*u1 ...``."""
    rows = []
    for u in directions:
        acc = coords[:, 0] * u[0]
        for j in range(1, len(u)):
            acc = acc + coords[:, j] * u[j]
        rows.append(acc)
    return np.array(rows)


def project_point(point, directions) -> list:
    """The candidate's projections, in Python numbers."""
    out = []
    for u in directions:
        acc = point[0] * u[0]
        for j in range(1, len(u)):
            acc = acc + point[j] * u[j]
        out.append(acc)
    return out


# ------------------------------------------------------------ polytope


@dataclass(frozen=True)
class Expected:
    """The right certificate for one point set and orientation list."""

    n: int
    k: int
    rank: int
    offsets: tuple
    contains: tuple
    region: tuple
    chosen: int


def expect_certificate(proj: np.ndarray) -> Expected:
    k, n = proj.shape
    rank = selection_rank(n, k)
    offsets = tuple(np.partition(row, rank - 1)[rank - 1].item() for row in proj)
    inside = np.ones(n, dtype=bool)
    for row, off in zip(proj, offsets):
        inside &= row <= off
    region = tuple(int(i) for i in np.flatnonzero(inside))
    contains = tuple(int(np.count_nonzero(row <= off)) for row, off in zip(proj, offsets))
    return Expected(n, k, rank, offsets, contains, region, region[0] if region else -1)


def expect_verdict(proj: np.ndarray, cand) -> tuple:
    """(ok, witness orientation index, witness count) by exact counts.

    ``proj`` rows are numpy columns of the same dtype as the candidate's
    projections ``cand``; for integer columns with a float candidate use
    :func:`expect_verdict_exact` instead.
    """
    k, n = proj.shape
    for i in range(k):
        below = int(np.count_nonzero(proj[i] < cand[i]))
        if heavy(below, n, k):
            return (False, i, below)
    return (True, None, None)


def expect_verdict_exact(coords, directions, candidate) -> tuple:
    """Like :func:`expect_verdict`, in Python numbers: an int compared with
    a float is compared exactly, with no rounding of either side."""
    n, k = len(coords), len(directions)
    cand = project_point(candidate, directions)
    for i, u in enumerate(directions):
        below = sum(1 for p in coords if project_point(p, [u])[0] < cand[i])
        if heavy(below, n, k):
            return (False, i, below)
    return (True, None, None)


def check_certificate(cert, expected: Expected, directions) -> list:
    """A ``CenterpointCertificate`` against the expectation."""
    problems = []
    if cert.rank != expected.rank:
        problems.append(f"rank {cert.rank} != {expected.rank}")
    if len(cert.halfspaces) != expected.k:
        return problems + [f"{len(cert.halfspaces)} halfspaces != {expected.k}"]
    for i, h in enumerate(cert.halfspaces):
        if tuple(h.orientation.direction) != tuple(directions[i]):
            problems.append(f"halfspace {i} orientation {h.orientation.direction}")
        if h.offset != expected.offsets[i]:
            problems.append(f"offset {i}: {h.offset!r} != {expected.offsets[i]!r}")
    if tuple(cert.region_members) != expected.region:
        problems.append(
            f"region of {len(cert.region_members)} != {len(expected.region)} members"
        )
    if cert.chosen_index != expected.chosen:
        problems.append(f"chosen index {cert.chosen_index} != {expected.chosen}")
    return problems


def check_verdict(verdict, expected: tuple, directions) -> list:
    """A ``Verdict`` against (ok, witness index, witness count)."""
    ok, index, count = expected
    if verdict.ok != ok:
        return [f"verdict ok={verdict.ok}, exact counts give ok={ok}"]
    if ok:
        return []
    problems = []
    got = tuple(verdict.witness_orientation.direction)
    if got != tuple(directions[index]):
        problems.append(f"witness orientation {got} != {tuple(directions[index])}")
    if verdict.witness_count != count:
        problems.append(f"witness count {verdict.witness_count} != {count}")
    return problems


def centerpoint_problems(proj: np.ndarray, index: int) -> list:
    """The chosen point must satisfy k * below <= (k - 1) * n everywhere."""
    ok, i, below = expect_verdict(proj, proj[:, index])
    return [] if ok else [f"chosen point has {below} points below along {i}"]


# ------------------------------------------------------------ CLI reports


def parse_report(text: str):
    """Top-level ``key: value`` pairs and the list of halfspace entries."""
    top, halfspaces = {}, []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("- orientation:"):
            halfspaces.append({"orientation": stripped.split(":", 1)[1].strip()})
        elif line.startswith("    ") and halfspaces:
            key, _, value = stripped.partition(":")
            halfspaces[-1][key] = value.strip()
        elif not line.startswith(" ") and ":" in line:
            key, _, value = line.partition(":")
            top[key] = value.strip()
    return top, halfspaces


def vector_text(direction) -> str:
    return " ".join(str(c) for c in direction)


def check_compute_report(
    text: str, code: int, expected: Expected, directions, data: bytes, rows
) -> list:
    """``strongcenter compute`` output on an integer point file."""
    top, halfspaces = parse_report(text)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    wanted = {
        "mode": "compute",
        "input-sha256": hashlib.sha256(data).hexdigest(),
        "n": str(expected.n),
        "k": str(expected.k),
        "rank": str(expected.rank),
        "region-size": str(len(expected.region)),
        "chosen-index": str(expected.chosen),
        "chosen-point": rows[expected.chosen],
        "verdict": "ok",
    }
    for key, value in wanted.items():
        if top.get(key) != value:
            problems.append(f"{key}: {top.get(key)!r} != {value!r}")
    if "region-members" in top:
        members = tuple(int(t) for t in top["region-members"].split())
        if members != expected.region:
            problems.append("region-members differ")
    if len(halfspaces) != expected.k:
        return problems + [f"{len(halfspaces)} halfspaces != {expected.k}"]
    for i, h in enumerate(halfspaces):
        for key, value in (
            ("orientation", vector_text(directions[i])),
            ("offset", str(expected.offsets[i])),
            ("contains", str(expected.contains[i])),
        ):
            if h.get(key) != value:
                problems.append(f"halfspace {i} {key}: {h.get(key)!r} != {value!r}")
    return problems


def check_verify_report(
    text: str, code: int, expected: tuple, directions, data: bytes
) -> list:
    """``strongcenter verify`` output and exit code against exact counts."""
    top, _ = parse_report(text)
    ok, index, count = expected
    wanted = {
        "mode": "verify",
        "input-sha256": hashlib.sha256(data).hexdigest(),
        "verdict": "ok" if ok else "not-centerpoint",
    }
    if not ok:
        wanted["witness-orientation"] = vector_text(directions[index])
        wanted["witness-count"] = str(count)
    problems = [
        f"{key}: {top.get(key)!r} != {value!r}"
        for key, value in wanted.items()
        if top.get(key) != value
    ]
    if code != (0 if ok else 1):
        problems.append(f"exit code {code} for verdict ok={ok}")
    return problems


# ------------------------------------------------------------ set systems


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def check_line_system(coords: np.ndarray, system) -> list:
    """Point/line incidences of distinct integer points in the plane.

    Every set must be exactly the points on one line through two of its
    members, and every pair of points must lie in exactly one set.
    """
    n = len(coords)
    problems = []
    if system.n != n or system.k != 2:
        problems.append(f"n={system.n}, k={system.k}; expected n={n}, k=2")
    pairs = np.zeros((n, n), dtype=np.int32)
    for s in system.sets:
        idx = np.array(s)
        if len(s) < 2:
            problems.append(f"set {s} spans no line")
            continue
        a, b = coords[s[0]], coords[s[1]]
        on = np.flatnonzero(_cross2(b - a, coords - a) == 0)
        if tuple(on.tolist()) != tuple(s):
            problems.append(f"set {s[:4]}... is not the full line {on[:4]}...")
        pairs[np.ix_(idx, idx)] += 1
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    bad = int(np.count_nonzero(pairs[upper] != 1))
    if bad:
        problems.append(f"{bad} point pairs not in exactly one set")
    return problems


def _noncollinear(coords: np.ndarray) -> np.ndarray:
    u = coords[None, :, None, :] - coords[:, None, None, :]
    v = coords[None, None, :, :] - coords[:, None, None, :]
    return np.cross(u, v).any(axis=-1)


def check_plane_system(coords: np.ndarray, system) -> list:
    """Point/plane incidences of distinct integer points in space.

    Every set must be exactly the points on one plane through three
    non-collinear members, and every non-collinear triple of points must
    lie in exactly one set.
    """
    n = len(coords)
    problems = []
    if system.n != n or system.k != 3:
        problems.append(f"n={system.n}, k={system.k}; expected n={n}, k=3")
    triples = np.zeros((n, n, n), dtype=np.int32)
    for s in system.sets:
        idx = np.array(s)
        a, b = coords[s[0]], coords[s[-1]]
        normals = np.cross(b - a, coords[idx] - a)
        spanning = np.flatnonzero(normals.any(axis=1))
        if len(s) < 3 or not len(spanning):
            problems.append(f"set {s[:4]}... spans no plane")
            continue
        on = np.flatnonzero((coords - a) @ normals[spanning[0]] == 0)
        if tuple(on.tolist()) != tuple(s):
            problems.append(f"set {s[:4]}... is not the full plane {on[:4]}...")
        triples[np.ix_(idx, idx, idx)] += 1
    i, j, l = np.ogrid[:n, :n, :n]
    wanted = (i < j) & (j < l) & _noncollinear(coords)
    bad = int(np.count_nonzero(triples[wanted] != 1))
    if bad:
        problems.append(f"{bad} non-collinear triples not in exactly one set")
    return problems


def heavy_intersection(system) -> list:
    """Elements in every heavy set, ascending (all elements when none is)."""
    common = set(range(system.n))
    for s in system.sets:
        if heavy(len(s), system.n, system.k):
            common &= set(s)
    return sorted(common)


def check_solver(result, system, planted_sets) -> list:
    """The solver's element must lie in every heavy set and in each of the
    planted index sets."""
    element = result.element
    if element is None:
        return [f"no element returned, witness {result.witness}"]
    problems = []
    if element not in heavy_intersection(system):
        problems.append(f"element {element} misses a heavy set")
    for planted in planted_sets:
        if element not in planted:
            problems.append(f"element {element} is off a planted flat")
    return problems


def check_oracle(elements, system) -> list:
    expected = heavy_intersection(system)
    if list(elements) != expected:
        return [f"oracle gave {len(elements)} elements, expected {len(expected)}"]
    return []
