"""The point-file format: a ``d n`` header, then n rows of d coordinates.

Integer-looking tokens parse to exact ints, everything else to floats. The
coordinates are kept as per-axis columns, and the raw row text is retained
so reports can echo coordinates as they were typed.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ParseError
from .geometry import Point

_INT_TOKEN = re.compile(r"[+-]?\d+\Z")
# Text made of these bytes alone holds only tokens of the characters 0-9+-,
# which numpy's int64 reader reads as parse_number does when it accepts them.
_PLAIN_INT_BYTES = (
    "0123456789+-" + "".join(c for c in map(chr, range(128)) if c.isspace())
).encode("ascii")


@dataclass(frozen=True, eq=False)
class PointFile:
    """Point set as per-axis coordinate columns, the only stored copy of
    the coordinates, with the row text as typed, or None for a PointFile
    built from Points. PointFiles compare by identity.

    Each column is an int64 array when every token of the file is a plain
    integer that fits in int64, and otherwise a tuple of the parsed ints and
    floats; :meth:`from_points` builds tuple columns of the points' own
    values. The polytope functions and ``render_plot`` read these, and
    ``point(i)`` reads point i from them. ``projectors`` maps each family
    to its memoized projection function: each projection is built the
    first time a call reads it, and kept for as long as the PointFile.
    """

    dim: int
    columns: tuple = field(repr=False)
    rows: tuple | None = field(repr=False)
    projectors: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_points(cls, points) -> "PointFile":
        """A PointFile of a non-empty sequence of Points of one dimension,
        with no rows. A caller verifying many candidates converts the
        points once this way, and the projections are kept as for a parsed
        file."""
        first = points[0] if len(points) else None
        dim = first.dim if isinstance(first, Point) else 0
        return cls(dim, tuple(map(tuple, point_columns(points, dim))), None)

    def point(self, index: int) -> Point:
        """Point ``index``: Python ints from int64 columns, else the
        stored values themselves."""
        return Point(tuple(c[index].item() if isinstance(c, np.ndarray)
                           else c[index] for c in self.columns))


def point_columns(points, dim: int) -> list:
    """Per-axis coordinate lists of ``points``, each checked to be a Point
    of dimension ``dim``."""
    if len(points) == 0:
        raise ValueError("empty point set")
    if not (
        all(map(isinstance, points, itertools.repeat(Point)))
        and {len(p.coords) for p in points} == {dim}
    ):
        for idx, p in enumerate(points):  # name the first bad entry
            if not isinstance(p, Point):
                raise TypeError(f"points[{idx}] is not a Point")
            if p.dim != dim:
                raise DimensionMismatchError(
                    f"points[{idx}] has dimension {p.dim}, expected {dim}"
                )
    return [[p.coords[j] for p in points] for j in range(dim)]


def parse_number(token: str):
    """One coordinate token: an exact int when it looks like one, else a
    finite float."""
    if _INT_TOKEN.match(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"bad coordinate {token!r}") from None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad coordinate {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite coordinate {token!r}")
    return value


def format_number(value) -> str:
    """Shortest text that parses back to the same value, written as a plain
    int or float for a subclass such as ``np.float64``."""
    if isinstance(value, float):
        return float.__repr__(value)
    return int.__repr__(value) if isinstance(value, int) else str(value)


def read_header(text: str, kind: str, names: str) -> tuple:
    """``(lines, a, b)``: the lines of ``text`` up to its last non-blank
    one, and the two ints ``names`` of its header line. ``kind`` names
    the file when it holds no such line."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(f"empty {kind}")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be '{names}'")
    try:
        return lines, int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must hold two integers") from None


def parse_point_file(text: str) -> PointFile:
    lines, dim, n = read_header(text, "point file", "d n")
    if dim < 1:
        raise ParseError("dimension must be positive")
    if n < 1:
        raise ParseError("point count must be positive")
    if len(lines) - 1 != n:
        raise ParseError(
            f"header promises {n} points, file has {len(lines) - 1} rows"
        )
    body = lines[1:]
    columns = _int64_columns(text, body, dim)
    if columns is None:
        columns = _parsed_columns(body, dim)
    return PointFile(dim, columns, tuple(map(str.strip, body)))


def _int64_columns(text: str, body: list, dim: int):
    """int64 columns from numpy's C text reader, or None unless every token
    is made of the characters 0-9+- and every row is well formed and fits.
    The reader skips blank rows, so its result counts only when it holds
    ``dim`` values for each body line."""
    if not text.isascii() or text.encode("ascii").translate(
        None, _PLAIN_INT_BYTES
    ):
        return None
    try:
        flat = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
    except (OverflowError, ValueError):
        return None
    if flat.shape != (len(body), dim):
        return None
    return tuple(flat.T.copy())


def _parsed_columns(body: list, dim: int) -> tuple:
    """Columns of Python numbers, token by token; raises on the first
    malformed row or token."""
    values = []
    for line_no, line in enumerate(body, start=2):
        parts = line.split()
        if len(parts) != dim:
            raise ParseError(
                f"line {line_no}: expected {dim} coordinates, got "
                f"{len(parts)}"
            )
        values.extend(map(parse_number, parts))
    return tuple(tuple(values[j::dim]) for j in range(dim))


def format_points(points) -> str:
    """Render points in the file format, with canonical single-space rows."""
    points = list(points)
    if not points:
        raise ValueError("no points to format")
    dim = points[0].dim
    lines = [f"{dim} {len(points)}"]
    lines.extend(map(_format_row, points))
    return "\n".join(lines) + "\n"


def _format_row(point: Point) -> str:
    return " ".join(map(format_number, point.coords))
