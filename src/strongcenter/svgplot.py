"""Deterministic SVG plots of planar instances.

Shows the point set, each constructed halfspace boundary, the shaded
common region, and the chosen point. Output depends only on the inputs;
coordinates are written with two decimals.
"""

from __future__ import annotations

import math

import numpy as np

from .pointfile import PointFile
from .polytope import CenterpointCertificate

_WIDTH = 640.0
_HEIGHT = 640.0
_MARGIN = 48.0

_REGION_FILL = "#9ecae8"
_LINE_COLOR = "#666666"
_POINT_COLOR = "#1a1a1a"
_CHOSEN_COLOR = "#d0342c"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _clip_halfplane(polygon, ux, uy, offset):
    """Sutherland-Hodgman clip of a polygon by {x : ux*x + uy*y <= offset}."""
    if not polygon:
        return []
    out = []
    prev = polygon[-1]
    prev_inside = ux * prev[0] + uy * prev[1] <= offset
    for current in polygon:
        inside = ux * current[0] + uy * current[1] <= offset
        if inside != prev_inside:
            fp = ux * prev[0] + uy * prev[1] - offset
            fc = ux * current[0] + uy * current[1] - offset
            t = fp / (fp - fc)
            out.append(
                (
                    prev[0] + t * (current[0] - prev[0]),
                    prev[1] + t * (current[1] - prev[1]),
                )
            )
        if inside:
            out.append(current)
        prev, prev_inside = current, inside
    return out


def _line_in_rect(ux, uy, offset, rect):
    """Segment of the line ux*x + uy*y = offset inside a rectangle, or None."""
    x0, y0, x1, y1 = rect
    # the foot point of the line, from the normal scaled exactly by a power
    # of two: its squares stay finite for components past 1e154, and
    # dividing first keeps an offset near the float64 limit finite; only
    # the rectangle bounds the segment, however large
    e = math.frexp(max(abs(ux), abs(uy)))[1]
    sx, sy = math.ldexp(ux, -e), math.ldexp(uy, -e)
    along = math.ldexp(offset, -e) / (sx * sx + sy * sy)
    ax, ay = sx * along, sy * along
    wx, wy = -uy, ux
    t_lo, t_hi = -math.inf, math.inf
    for p, q in (
        (-wx, ax - x0),
        (wx, x1 - ax),
        (-wy, ay - y0),
        (wy, y1 - ay),
    ):
        if p == 0:
            if q < 0:
                return None
            continue
        t = q / p
        if p > 0:
            t_hi = min(t_hi, t)
        else:
            t_lo = max(t_lo, t)
    if t_lo >= t_hi:
        return None
    return (
        (ax + wx * t_lo, ay + wy * t_lo),
        (ax + wx * t_hi, ay + wy * t_hi),
    )


def _window(low: float, high: float, pad: float) -> tuple:
    """The view interval ``[low - pad, high + pad]``. When ``pad`` is below
    the float spacing at ``low == high`` (coordinates near 2**63, say) that
    interval is empty, so the pad becomes one unit in the last place."""
    if low - pad == high + pad:
        pad = math.ulp(low)
    return low - pad, high + pad


def render_plot(point_file, certificate: CenterpointCertificate) -> str:
    """SVG document for a planar :class:`PointFile` and its certificate,
    drawn from the float64 values of its columns. Raises OverflowError for
    an integer beyond float64 and ValueError for a view box that overflows.
    """
    if not isinstance(point_file, PointFile):
        raise TypeError("render_plot takes a PointFile")
    if point_file.dim != 2:
        raise ValueError("plots require dimension 2")
    xs, ys = (np.asarray(c, dtype=np.float64) for c in point_file.columns)
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min, y_max = float(ys.min()), float(ys.max())
    span = max(x_max - x_min, y_max - y_min)
    pad = 0.15 * span if span > 0 else 1.0
    wx0, wx1 = _window(x_min, x_max, pad)
    wy0, wy1 = _window(y_min, y_max, pad)
    width, height = wx1 - wx0, wy1 - wy0
    scale = min(
        (_WIDTH - 2 * _MARGIN) / width, (_HEIGHT - 2 * _MARGIN) / height
    )
    if not all(map(math.isfinite, (width, height, scale))):
        raise ValueError("the plot's view box overflows float64")
    offset_x = (_WIDTH - scale * width) / 2.0
    offset_y = (_HEIGHT - scale * height) / 2.0

    def to_screen(x, y):
        sx = offset_x + (x - wx0) * scale
        sy = _HEIGHT - offset_y - (y - wy0) * scale
        return sx, sy

    rect = (wx0, wy0, wx1, wy1)
    region = [(wx0, wy0), (wx1, wy0), (wx1, wy1), (wx0, wy1)]
    for halfspace in certificate.halfspaces:
        ux, uy = (float(c) for c in halfspace.orientation.direction)
        region = _clip_halfplane(region, ux, uy, float(halfspace.offset))
        if not region:
            break

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'fill="white"/>',
    ]
    if region:
        corners = " ".join(
            "{},{}".format(*map(_fmt, to_screen(x, y))) for x, y in region
        )
        parts.append(
            f'<polygon points="{corners}" fill="{_REGION_FILL}" '
            f'fill-opacity="0.55" stroke="none"/>'
        )
    for halfspace in certificate.halfspaces:
        ux, uy = (float(c) for c in halfspace.orientation.direction)
        segment = _line_in_rect(ux, uy, float(halfspace.offset), rect)
        if segment is None:
            continue
        (ax, ay), (bx, by) = segment
        sx0, sy0 = to_screen(ax, ay)
        sx1, sy1 = to_screen(bx, by)
        parts.append(
            f'<line x1="{_fmt(sx0)}" y1="{_fmt(sy0)}" x2="{_fmt(sx1)}" '
            f'y2="{_fmt(sy1)}" stroke="{_LINE_COLOR}" stroke-width="1.5" '
            f'stroke-dasharray="6 4"/>'
        )
    for index, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        sx, sy = to_screen(x, y)
        if index == certificate.chosen_index:
            parts.append(
                f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="9" '
                f'fill="none" stroke="{_CHOSEN_COLOR}" stroke-width="2.5"/>'
            )
        parts.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3.5" '
            f'fill="{_POINT_COLOR}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
