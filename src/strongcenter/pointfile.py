"""The point-file format: a ``d n`` header, then n rows of d coordinates.

Integer-looking tokens parse to exact ints, everything else to floats. The
coordinates are kept as per-axis columns, and the raw row text is retained
so reports can echo coordinates as they were typed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParseError
from .geometry import Point

_INT_TOKEN = re.compile(r"[+-]?\d+\Z")
# Text made of these bytes alone holds only tokens of the characters 0-9+-,
# which numpy's int64 reader reads as parse_number does when it accepts them.
_PLAIN_INT_BYTES = (
    "0123456789+-" + "".join(c for c in map(chr, range(128)) if c.isspace())
).encode("ascii")


@dataclass(frozen=True)
class PointFile:
    """Parsed point file: dimension, per-axis coordinate columns, and the
    original row text.

    Each column is an int64 array when every token of the file is a plain
    integer that fits in int64, and otherwise a tuple of the parsed ints and
    floats. ``points`` is built from the rows on first use. ``projectors``
    maps each family's repr to the projection arrays the polytope functions
    built for it; they stay in memory for as long as the PointFile does.
    """

    dim: int
    columns: tuple = field(repr=False, compare=False)
    rows: tuple
    projectors: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def point(self, index: int) -> Point:
        """The point on row ``index``, parsed token by token."""
        return Point(tuple(map(parse_number, self.rows[index].split())))

    @cached_property
    def points(self) -> tuple:
        """Every row as a Point, built on first use."""
        return tuple(map(self.point, range(len(self.rows))))


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
    """Shortest text that parses back to the same value."""
    return repr(value) if isinstance(value, float) else str(value)


def parse_point_file(text: str) -> PointFile:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty point file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'd n'")
    try:
        dim, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must hold two integers") from None
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
    lines.extend(
        " ".join(format_number(c) for c in p.coords) for p in points
    )
    return "\n".join(lines) + "\n"
