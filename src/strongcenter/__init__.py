"""Strong centerpoints: points of a set guaranteed inside every object of
a restricted family that contains more than a fixed fraction of the set.

Two settings share the same containment threshold (1 - 1/k) * n: convex
polytopes whose facet orientations come from a fixed family of k
directions, and abstract set systems whose k-wise intersections are
bounded. Both get a constructive solver, an exact verifier or oracle, and
generators for the matching extremal instances.
"""

from .errors import (
    DimensionMismatchError,
    ParseError,
    SizeGuardError,
)
from .families import (
    FAMILY_NAMES,
    axis_box_family,
    downward_triangle_family,
    homothet_family,
    named_family,
    orthant_family,
    skyline_family,
)
from .generators import (
    DEGENERATE_KINDS,
    Instance,
    convex_position_instance,
    degenerate_instance,
    random_instance,
    tightness_instance,
)
from .geometry import (
    Halfspace,
    Orientation,
    OrientationFamily,
    Point,
    heavy_threshold_exceeded,
    kth_smallest,
    normalize_orientations,
    project,
    selection_rank,
)
from .pointfile import (
    PointFile,
    format_number,
    format_points,
    parse_number,
    parse_point_file,
)
from .polytope import (
    CenterpointCertificate,
    Verdict,
    brute_force_max_avoiding,
    compute_strong_centerpoint,
    max_avoiding_count,
    verify_strong_centerpoint,
)
from .setsystem import (
    AbstractResult,
    SetSystem,
    brute_force_strong_centerpoints,
    check_bounded_intersection,
    format_set_system,
    hyperplane_system,
    parse_set_system,
    restrict,
    strong_centerpoint,
)
from .svgplot import render_plot

__version__ = "0.1.0"

__all__ = [
    "AbstractResult",
    "CenterpointCertificate",
    "DEGENERATE_KINDS",
    "DimensionMismatchError",
    "FAMILY_NAMES",
    "Halfspace",
    "Instance",
    "Orientation",
    "OrientationFamily",
    "ParseError",
    "Point",
    "PointFile",
    "SetSystem",
    "SizeGuardError",
    "Verdict",
    "axis_box_family",
    "brute_force_max_avoiding",
    "brute_force_strong_centerpoints",
    "check_bounded_intersection",
    "compute_strong_centerpoint",
    "convex_position_instance",
    "degenerate_instance",
    "downward_triangle_family",
    "format_number",
    "format_points",
    "format_set_system",
    "heavy_threshold_exceeded",
    "homothet_family",
    "hyperplane_system",
    "kth_smallest",
    "max_avoiding_count",
    "named_family",
    "normalize_orientations",
    "orthant_family",
    "parse_number",
    "parse_point_file",
    "parse_set_system",
    "project",
    "random_instance",
    "render_plot",
    "restrict",
    "selection_rank",
    "skyline_family",
    "strong_centerpoint",
    "tightness_instance",
    "verify_strong_centerpoint",
]
