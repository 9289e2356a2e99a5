"""Command-line front end: compute, verify, abstract, plot, generate.

Exit codes: 0 success, 1 negative verdict (verification failure, oracle
disagreement, or no centerpoint), 2 unreadable or malformed input, 3
dimension mismatch, 4 bounded-intersection property violation found by
``abstract --check``.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import DimensionMismatchError, ParseError, SizeGuardError
from .families import FAMILY_NAMES, named_family
from .generators import (
    DEGENERATE_KINDS,
    convex_position_instance,
    degenerate_instance,
    random_instance,
    tightness_instance,
)
from .geometry import Point, normalize_orientations
from .pointfile import (
    format_number,
    format_points,
    parse_number,
    parse_point_file,
)
from .polytope import compute_strong_centerpoint, verify_strong_centerpoint
from .report import Report, input_digest
from .setsystem import (
    brute_force_strong_centerpoints,
    check_bounded_intersection,
    parse_set_system,
    strong_centerpoint,
)
from .svgplot import render_plot

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_PROPERTY = 4

_ORACLE_CAP = 200
_MEMBER_LIST_CAP = 64


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _load_family(spec: str, dim: int):
    if spec.startswith("custom:"):
        path = spec[len("custom:") :]
        normals = parse_point_file(_read_bytes(path).decode("utf-8"))
        if normals.dim != dim:
            raise DimensionMismatchError(
                f"normals of dimension {normals.dim} for points of "
                f"dimension {dim}"
            )
        return normalize_orientations([p.coords for p in normals.points])
    return named_family(spec, dim)


def _vector_text(values) -> str:
    return " ".join(format_number(v) for v in values)


def _elapsed_ms(start: float) -> int:
    return int((time.monotonic() - start) * 1000)


def _read_points(args):
    """Start the clock, parse the point file and load the family; returns
    them with a report holding the family, d, n and k lines."""
    start = time.monotonic()
    data = _read_bytes(args.points_file)
    point_file = parse_point_file(data.decode("utf-8"))
    family = _load_family(args.family, point_file.dim)
    report = Report(args.command, input_digest(data))
    report.add("family", args.family)
    report.add("d", point_file.dim)
    report.add("n", len(point_file.rows))
    report.add("k", family.k)
    return start, point_file, family, report


def _cmd_compute(args) -> int:
    start, point_file, family, report = _read_points(args)
    certificate = compute_strong_centerpoint(point_file, family)
    verdict = verify_strong_centerpoint(point_file, family, certificate.point)
    report.add("rank", certificate.rank)
    report.add_raw("halfspaces:")
    for halfspace, contains in zip(
        certificate.halfspaces, certificate.contains
    ):
        report.add_raw(
            f"- orientation: {_vector_text(halfspace.orientation.direction)}",
            indent=1,
        )
        report.add("offset", format_number(halfspace.offset), indent=2)
        report.add("contains", contains, indent=2)
    members = certificate.region_members
    report.add("region-size", len(members))
    if len(members) <= _MEMBER_LIST_CAP:
        report.add("region-members", " ".join(str(i) for i in members))
    report.add("chosen-index", certificate.chosen_index)
    report.add("chosen-point", point_file.rows[certificate.chosen_index])
    report.add("verdict", "ok" if verdict.ok else "fail")
    sys.stdout.write(report.render(_elapsed_ms(start)))
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    start, point_file, family, report = _read_points(args)
    tokens = args.candidate.split()
    if len(tokens) != point_file.dim:
        raise DimensionMismatchError(
            f"candidate has {len(tokens)} coordinates, points have "
            f"{point_file.dim}"
        )
    candidate = Point(tuple(parse_number(token) for token in tokens))
    verdict = verify_strong_centerpoint(point_file, family, candidate)
    report.add("candidate", " ".join(tokens))
    report.add("verdict", "ok" if verdict.ok else "not-centerpoint")
    if not verdict.ok:
        report.add(
            "witness-orientation",
            _vector_text(verdict.witness_orientation.direction),
        )
        report.add("witness-count", verdict.witness_count)
    sys.stdout.write(report.render(_elapsed_ms(start)))
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def _cmd_abstract(args) -> int:
    start = time.monotonic()
    data = _read_bytes(args.system_file)
    system = parse_set_system(data.decode("utf-8"))
    report = Report("abstract", input_digest(data))
    report.add("n", system.n)
    report.add("k", system.k)
    report.add("sets", len(system.sets))
    if args.check:
        violation = check_bounded_intersection(system)
        if violation is not None:
            report.add("property", "violation")
            report.add(
                "violation-sets", " ".join(str(i) for i in violation)
            )
            sys.stdout.write(report.render(_elapsed_ms(start)))
            return EXIT_PROPERTY
        report.add("property", "ok")
    else:
        report.add("property", "unchecked")
    result = strong_centerpoint(system)
    if result.found:
        report.add("outcome", "element")
        report.add("element", result.element)
    else:
        report.add("outcome", "no-centerpoint")
        report.add(
            "witness-sets", " ".join(str(i) for i in result.witness)
        )
    report.add_raw("trace:")
    for ground_size, chosen in result.trace:
        report.add_raw(f"- n: {ground_size}", indent=1)
        report.add(
            "chose-set", "none" if chosen is None else chosen, indent=2
        )
    agree = True
    if args.oracle:
        if system.n <= _ORACLE_CAP:
            oracle = brute_force_strong_centerpoints(system)
            if result.found:
                agree = result.element in oracle
            else:
                agree = not oracle
            report.add("oracle", "agree" if agree else "disagree")
            if oracle and len(oracle) <= _MEMBER_LIST_CAP:
                report.add(
                    "oracle-elements", " ".join(str(e) for e in oracle)
                )
        else:
            report.add("oracle", f"skipped (n > {_ORACLE_CAP})")
    sys.stdout.write(report.render(_elapsed_ms(start)))
    if not result.found or not agree:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_plot(args) -> int:
    data = _read_bytes(args.points_file)
    point_file = parse_point_file(data.decode("utf-8"))
    if point_file.dim != 2:
        raise DimensionMismatchError("plotting requires dimension 2")
    family = _load_family(args.family, point_file.dim)
    certificate = compute_strong_centerpoint(point_file, family)
    svg = render_plot(point_file.points, certificate)
    with open(args.svg, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.what == "tightness":
        family = named_family(args.family, args.d)
        instance = tightness_instance(
            family, args.n, jitter=args.jitter, seed=args.seed
        )
        points = instance.points
    elif args.what == "random":
        instance = random_instance(args.seed, args.n, args.d, args.k)
        points = instance.points
    elif args.what == "convex-position":
        points = convex_position_instance(args.n)
    elif args.what == "degenerate":
        points = degenerate_instance(args.kind).points
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown generator {args.what!r}")
    text = format_points(points)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongcenter",
        description=(
            "Compute and verify strong centerpoints: points of the input "
            "set contained in every sufficiently heavy object of a fixed "
            "family."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family_help = (
        "family name (%s) or custom:<normals-file>" % ", ".join(FAMILY_NAMES)
    )

    p_compute = sub.add_parser(
        "compute", help="construct a strong centerpoint for a point file"
    )
    p_compute.add_argument("points_file")
    p_compute.add_argument("--family", required=True, help=family_help)
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser(
        "verify", help="check whether a candidate point is a strong centerpoint"
    )
    p_verify.add_argument("points_file")
    p_verify.add_argument("--family", required=True, help=family_help)
    p_verify.add_argument(
        "--candidate",
        required=True,
        help="candidate coordinates, space separated, e.g. '1 0'; write "
        "a value starting with '-' as --candidate=-1e3",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_abstract = sub.add_parser(
        "abstract", help="solve an abstract bounded-intersection set system"
    )
    p_abstract.add_argument("system_file")
    p_abstract.add_argument(
        "--check",
        action="store_true",
        help="verify the bounded-intersection property first",
    )
    p_abstract.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force oracle (n <= 200)",
    )
    p_abstract.set_defaults(func=_cmd_abstract)

    p_plot = sub.add_parser(
        "plot", help="render a planar instance and its certificate to SVG"
    )
    p_plot.add_argument("points_file")
    p_plot.add_argument("--family", required=True, help=family_help)
    p_plot.add_argument("--svg", required=True, help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    p_generate = sub.add_parser(
        "generate", help="write a generated point file"
    )
    p_generate.add_argument(
        "what",
        choices=("tightness", "random", "convex-position", "degenerate"),
    )
    p_generate.add_argument("--n", type=int, default=16)
    p_generate.add_argument("--d", type=int, default=2)
    p_generate.add_argument("--k", type=int, default=4)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--jitter", type=float, default=0.0)
    p_generate.add_argument(
        "--family",
        default="axis-box",
        help="named family for tightness instances",
    )
    p_generate.add_argument(
        "--kind",
        choices=DEGENERATE_KINDS,
        default="all-coincident",
        help="layout for degenerate instances",
    )
    p_generate.add_argument(
        "--out", default=None, help="output path (default: stdout)"
    )
    p_generate.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (SizeGuardError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
