import hashlib
import math
import re
import time
import warnings

import pytest

from strongcenter import (
    AbstractResult,
    CenterpointCertificate,
    Halfspace,
    Orientation,
    ParseError,
    Point,
    PointFile,
    axis_box_family,
    compute_strong_centerpoint,
    render_plot,
    tightness_instance,
    verify_strong_centerpoint,
)
from strongcenter import cli, polytope, svgplot
from strongcenter.cli import main
from strongcenter.errors import check_size_guard
from strongcenter.families import named_family
from strongcenter.pointfile import (
    format_number,
    format_points,
    parse_number,
    parse_point_file,
)
from strongcenter.report import Report, input_digest


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    return re.sub(r"^time-ms: \d+$", "time-ms: _", text, flags=re.M)


def assert_error_only(out, err):
    """An error exit writes no report and one ``error:`` line."""
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# -------------------------------------------------------------- point files


def test_parse_number_token_typing():
    assert parse_number("3") == 3 and isinstance(parse_number("3"), int)
    assert parse_number("-07") == -7
    assert parse_number("+2") == 2
    value = parse_number("2.5")
    assert value == 2.5 and isinstance(value, float)
    assert parse_number("1e3") == 1000.0
    with pytest.raises(ParseError):
        parse_number("nan")
    with pytest.raises(ParseError):
        parse_number("inf")
    with pytest.raises(ParseError):
        parse_number("two")


def test_format_number_round_trips():
    for value in (0, -3, 10**20, 0.1, -2.5, 1e-17):
        assert parse_number(format_number(value)) == value


def test_parse_point_file():
    parsed = parse_point_file("2 3\n0 0\n1 5\n-2 7\n")
    assert parsed.dim == 2
    assert list(map(parsed.point, range(3))) == [
        Point(0, 0), Point(1, 5), Point(-2, 7)
    ]
    assert parsed.rows == ("0 0", "1 5", "-2 7")


def test_parse_point_file_preserves_decimal_text():
    parsed = parse_point_file("1 2\n0.50\n1.0e2\n")
    assert parsed.rows == ("0.50", "1.0e2")
    assert parsed.point(0) == Point(0.5)
    assert parsed.point(1) == Point(100.0)


def test_parse_point_file_errors():
    for text in (
        "",
        "2\n",
        "2 2\n0 0\n",
        "2 1\n0 0\n1 1\n",
        "2 1\n0\n",
        "0 1\n\n",
        "2 1\n0 x\n",
        "x 1\n0 0\n",
    ):
        with pytest.raises(ParseError):
            parse_point_file(text)


def test_format_points_round_trip():
    points = (Point(0, 0), Point(1, -5), Point(2, 3))
    text = format_points(points)
    assert text == "2 3\n0 0\n1 -5\n2 3\n"
    parsed = parse_point_file(text)
    assert tuple(map(parsed.point, range(3))) == points
    with pytest.raises(ValueError, match="^no points to format$"):
        format_points([])


# ------------------------------------------------------------------ report


def test_report_layout():
    report = Report("compute", input_digest(b"hello"))
    report.add("n", 4)
    report.add("offset", -1, indent=1)
    text = report.render(12)
    lines = text.splitlines()
    assert lines[0] == "schema-version: 2"
    assert lines[1] == "mode: compute"
    assert lines[2].startswith("input-sha256: ")
    assert lines[3] == "n: 4"
    assert lines[4] == "  offset: -1"
    assert lines[-1] == "time-ms: 12"


def test_input_digest_is_sha256():
    assert input_digest(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


# --------------------------------------------------------------------- svg


def test_plot_single_point_marker():
    point_file = parse_point_file("2 1\n0 0\n")
    cert = compute_strong_centerpoint(point_file, axis_box_family(2))
    svg = render_plot(point_file, cert)
    assert svg.count("<circle") == 2  # the point plus its chosen ring
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_plot_tightness_square_region():
    inst = tightness_instance(axis_box_family(2), 8)
    point_file = parse_point_file(format_points(inst.points))
    cert = compute_strong_centerpoint(point_file, inst.family)
    svg = render_plot(point_file, cert)
    assert svg.count("<polygon") == 1
    assert svg.count("<line") == 4
    centers = set(re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="3.5"', svg))
    assert len(centers) == 4


def test_plot_deterministic():
    inst = tightness_instance(axis_box_family(2), 8)
    point_file = parse_point_file(format_points(inst.points))
    cert = compute_strong_centerpoint(point_file, inst.family)
    assert render_plot(point_file, cert) == render_plot(point_file, cert)


def test_line_in_rect_offset_near_float_limit():
    # ux * offset overflows float64 here; offset / |u|^2 does not
    rect = (0.0, 0.0, 1e308, 1e308)
    (ax, ay), (bx, by) = svgplot._line_in_rect(3.0, 4.0, 1.4e308, rect)
    assert math.isclose(ax, 1.4e308 / 3) and ay == 0.0
    assert bx == 0.0 and math.isclose(by, 1.4e308 / 4)


def test_line_in_rect_normal_past_square_range():
    # ux * ux overflows float64 here; the power-of-two scaling does not
    rect = (-10.0, -10.0, 10.0, 10.0)
    assert svgplot._line_in_rect(1e200, 1e200, 4e200, rect) == (
        (10.0, -6.0),
        (-6.0, 10.0),
    )


def test_line_in_rect_reaches_a_wide_box():
    # the segment runs corner to corner, not out to a fixed parameter bound
    rect = (-1e20, -1e20, 1e20, 1e20)
    assert svgplot._line_in_rect(1.0, 1.0, 0.0, rect) == (
        (1e20, -1e20),
        (-1e20, 1e20),
    )


def test_line_in_rect_misses_the_box():
    rect = (-10, -10, 10, 10)
    # y = 20 runs parallel to the x edges, above the box
    assert svgplot._line_in_rect(0.0, 1.0, 20.0, rect) is None
    # x + y = 100 crosses no edge of the box
    assert svgplot._line_in_rect(1.0, 1.0, 100.0, rect) is None


def test_plot_region_clips_to_empty():
    # x <= -1 and x >= 1 meet nowhere: the region clips to nothing, and the
    # boundary x = -1 lies left of the view box, so only x = 1 is drawn
    assert svgplot._clip_halfplane([], 1.0, 0.0, 0.0) == []
    points = [Point(0, 0), Point(1, 0), Point(0, 1)]
    halfspaces = (Halfspace(Orientation(1, 0), -1), Halfspace(Orientation(-1, 0), -1))
    cert = CenterpointCertificate(halfspaces, (), 0, 1, points[0], (0, 0))
    svg = render_plot(PointFile.from_points(points), cert)
    assert "<polygon" not in svg
    assert svg.count("<line") == 1


def test_plot_takes_a_point_file():
    points = [Point(0, 0), Point(1, 2)]
    cert = compute_strong_centerpoint(points, axis_box_family(2))
    with pytest.raises(TypeError, match="PointFile"):
        render_plot(points, cert)
    solid = PointFile.from_points([Point(0, 0, 0), Point(1, 2, 3)])
    with pytest.raises(ValueError, match="plots require dimension 2"):
        render_plot(solid, cert)


# --------------------------------------------------------------------- cli


def test_cli_compute_single_point(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "2 1\n5 7\n")
    code, out, _ = run(capsys, "compute", path, "--family", "axis-box")
    assert code == 0
    assert "chosen-point: 5 7" in out
    assert "verdict: ok" in out


def test_cli_compute_collinear_with_custom_family(tmp_path, capsys):
    points = write(tmp_path, "p.txt", "2 4\n0 0\n1 0\n2 0\n3 0\n")
    normals = write(tmp_path, "f.txt", "2 2\n1 0\n-1 0\n")
    code, out, _ = run(
        capsys, "compute", points, "--family", "custom:" + normals
    )
    assert code == 0
    assert "chosen-point: 1 0" in out
    assert "offset: 2" in out
    assert "offset: -1" in out
    assert "rank: 3" in out


def test_cli_custom_normals_of_another_dimension_exit_3(tmp_path, capsys):
    points = write(tmp_path, "p.txt", "2 4\n0 0\n1 0\n2 0\n3 0\n")
    normals = write(tmp_path, "f.txt", "3 2\n1 0 0\n-1 0 0\n")
    code, out, err = run(
        capsys, "compute", points, "--family", "custom:" + normals
    )
    assert code == 3 and out == ""
    assert "normals of dimension 3 for points of dimension 2" in err


def _compute_then_verify(capsys, points, normals):
    """Run compute with the custom family, then verify its chosen point
    with the same family; return compute's report and verify's exit code."""
    family = "custom:" + normals
    code, out, _ = run(capsys, "compute", points, "--family", family)
    assert code == 0
    assert "verdict: ok" in out
    chosen = re.search(r"chosen-point: (.+)", out).group(1)
    verify_code, _, _ = run(
        capsys, "verify", points, "--family", family, "--candidate", chosen
    )
    return out, verify_code


def test_cli_custom_family_keeps_nearly_parallel_normals(tmp_path, capsys):
    # no tolerance merges (1, 1e-10) into (1, 0): k is 3, not 2, and the
    # point a k = 2 family would choose fails along (1.0, 1e-10)
    points = write(
        tmp_path,
        "p.txt",
        "2 6\n5 -86895443334\n-3 3183652505\n5 -81421829922\n"
        "-5 3350403033\n-1 96154046702\n1 62607350276\n",
    )
    normals = write(tmp_path, "f.txt", "2 3\n1 0\n1 0.0000000001\n-1 0\n")
    out, verify_code = _compute_then_verify(capsys, points, normals)
    assert "k: 3" in out
    assert verify_code == 0
    code, out, _ = run(
        capsys, "verify", points, "--family", "custom:" + normals,
        "--candidate", "-1 96154046702",
    )
    assert code == 1
    assert "witness-orientation: 1.0 1e-10" in out


def test_cli_custom_family_keeps_integer_and_float_twins(tmp_path, capsys):
    # (3, 4) and (0.6, 0.8) round differently near 1.2e16: k is 4, and
    # row 1, which a merged k = 3 family chose, has 5 of the 6 points
    # strictly below it along (0.6, 0.8)
    rows = [
        "12281535140256066 12281535145540741",
        "12281535142246614 12281535144047832",
        "12281535140915174 12281535145046407",
        "12281535140463870 12281535145384885",
        "12281535144665429 12281535142233721",
        "12281535145894488 12281535141311921",
    ]
    points = write(tmp_path, "p.txt", "2 6\n" + "\n".join(rows) + "\n")
    normals = write(tmp_path, "f.txt", "2 4\n3 4\n0.6 0.8\n-1 0\n0 -1\n")
    out, verify_code = _compute_then_verify(capsys, points, normals)
    assert "k: 4" in out
    assert verify_code == 0
    code, out, _ = run(
        capsys, "verify", points, "--family", "custom:" + normals,
        "--candidate", rows[1],
    )
    assert code == 1
    assert "witness-orientation: 0.6 0.8" in out
    assert "witness-count: 5" in out


@pytest.mark.parametrize("normal", ["1e200 1e200", "1e-200 1e-200"])
def test_cli_custom_family_with_extreme_float_normal(tmp_path, capsys, normal):
    points = write(tmp_path, "p.txt", "2 3\n0 0\n1 1\n2 0\n")
    normals = write(tmp_path, "f.txt", f"2 3\n{normal}\n-1 0\n0 -1\n")
    out, verify_code = _compute_then_verify(capsys, points, normals)
    assert "k: 3" in out
    assert "orientation: 0.7071067811865" in out
    assert verify_code == 0


def test_cli_compute_tightness_round_trip(tmp_path, capsys):
    inst = tightness_instance(axis_box_family(2), 8)
    path = write(tmp_path, "t.txt", format_points(inst.points))
    code, out, _ = run(capsys, "compute", path, "--family", "axis-box")
    assert code == 0
    assert "verdict: ok" in out
    chosen = re.search(r"chosen-point: (.+)", out).group(1)
    code, out, _ = run(
        capsys, "verify", path, "--family", "axis-box", "--candidate", chosen
    )
    assert code == 0
    assert "verdict: ok" in out


def test_cli_verify_failure_names_witness(tmp_path, capsys):
    rows = "\n".join(f"{i} 0" for i in range(8))
    path = write(tmp_path, "p.txt", f"2 8\n{rows}\n")
    code, out, _ = run(
        capsys, "verify", path, "--family", "axis-box", "--candidate", "7 0"
    )
    assert code == 1
    assert "verdict: not-centerpoint" in out
    assert "witness-orientation: 1 0" in out
    assert "witness-count: 7" in out


def test_cli_verify_candidate_outside_set(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "2 4\n0 0\n1 0\n2 0\n3 0\n")
    code, out, _ = run(
        capsys, "verify", path, "--family", "axis-box", "--candidate", "1 1"
    )
    assert code in (0, 1)
    assert "candidate: 1 1" in out


def test_cli_reports_echo_input_text_verbatim(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "2 2\n0.50 0\n1.25 0\n")
    code, out, _ = run(capsys, "compute", path, "--family", "axis-box")
    assert code == 0
    assert "chosen-point: 0.50 0" in out


def test_cli_strips_only_the_row_it_echoes(tmp_path, capsys):
    text = "2 4\n\t 0 0  \n 1 0\n0 1 \n1 1\n"
    # the parsed rows keep their surrounding whitespace
    assert parse_point_file(text).rows == ("\t 0 0  ", " 1 0", "0 1 ", "1 1")
    path = write(tmp_path, "p.txt", text)
    code, out, _ = run(capsys, "compute", path, "--family", "axis-box")
    assert code == 0
    assert "chosen-index: 0\n" in out
    assert "chosen-point: 0 0\n" in out


def test_cli_reports_byte_identical_modulo_timing(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "2 4\n0 0\n1 0\n2 0\n3 0\n")
    _, first, _ = run(capsys, "compute", path, "--family", "axis-box")
    _, second, _ = run(capsys, "compute", path, "--family", "axis-box")
    assert strip_timing(first) == strip_timing(second)
    assert re.search(r"^time-ms: \d+$", first, flags=re.M)


def test_cli_abstract_element(tmp_path, capsys):
    path = write(tmp_path, "s.txt", "5 2\n0 1 2\n2 3 4\n")
    code, out, _ = run(capsys, "abstract", path)
    assert code == 0
    assert "outcome: element" in out
    assert "element: 2" in out


def test_cli_abstract_three_lines_negative(tmp_path, capsys):
    path = write(tmp_path, "s.txt", "3 2\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "abstract", path, "--oracle")
    assert code == 1
    assert "outcome: no-centerpoint" in out
    assert "witness-sets: 0 1 2" in out
    assert "oracle: agree" in out


def test_cli_abstract_oracle_agreement(tmp_path, capsys):
    path = write(tmp_path, "s.txt", "6 3\n0 1 2 3 4\n3 4 5\n0 5\n")
    code, out, _ = run(capsys, "abstract", path, "--oracle", "--check")
    assert code == 0
    assert "property: ok" in out
    assert "element: 0" in out
    assert "oracle: agree" in out
    assert "chose-set: 0" in out


def refusal(cost, budget):
    """The text of a SizeGuardError."""
    return (
        f"estimated cost {cost} exceeds budget {budget}; "
        "set SC_SIZE_GUARD to raise the limit"
    )


def test_cli_abstract_oracle_skip_gives_its_reason(
    tmp_path, capsys, monkeypatch
):
    # the oracle's guard alone decides whether it runs, and a refusal is
    # a report line, not an error exit
    path = write(tmp_path, "s.txt", "201 2\n0 1\n")
    code, ran, err = run(capsys, "abstract", path, "--oracle")
    assert (code, err) == (0, "")
    assert "oracle: agree\n" in ran
    monkeypatch.setenv("SC_SIZE_GUARD", "100")
    code, out, err = run(capsys, "abstract", path, "--oracle")
    assert (code, err) == (0, "")
    skip = f"oracle: skipped ({refusal(202, 100)})\n"
    assert out.endswith(skip + out.splitlines(True)[-1])
    assert out.split(skip)[0] == ran.split("oracle: agree\n")[0]


def test_cli_abstract_refused_oracle_keeps_the_solver_exit(
    tmp_path, capsys, monkeypatch
):
    path = write(tmp_path, "s.txt", "3 2\n0 1\n1 2\n0 2\n")
    monkeypatch.setenv("SC_SIZE_GUARD", "2")
    code, out, err = run(capsys, "abstract", path, "--oracle")
    assert (code, err) == (1, "")
    assert "\noutcome: no-centerpoint\n" in out
    assert f"\noracle: skipped ({refusal(9, 2)})\n" in out


def test_cli_abstract_refused_check_still_exits_2(
    tmp_path, capsys, monkeypatch
):
    path = write(tmp_path, "s.txt", "5 2\n0 1 2\n2 3 4\n")
    monkeypatch.setenv("SC_SIZE_GUARD", "1")
    code, out, err = run(capsys, "abstract", path, "--check", "--oracle")
    assert (code, out) == (2, "")
    assert err == f"error: {refusal(6, 1)}\n"


def test_cli_abstract_oracle_disagreement(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "s.txt", "5 2\n0 1 2\n2 3 4\n")
    wrong = AbstractResult(0, None, ((5, None),))  # the oracle holds [2]
    monkeypatch.setattr(cli, "strong_centerpoint", lambda system: wrong)
    code, out, err = run(capsys, "abstract", path, "--oracle")
    assert (code, err) == (1, "")
    assert "\nelement: 0\n" in out
    assert "\noracle: disagree\noracle-elements: 2\n" in out


@pytest.mark.parametrize(
    "text, element",
    [
        # the order-2 images of light sets share two elements
        ("5 3\n0 1 2 3 4\n1 2 3\n2 3 4\n", 2),
        # the restricted heavy sets meet in nothing: the input's heavy
        # intersection {0, 3} answers
        ("4 3\n0 2 3\n0 2\n2 3\n0\n0 1 3\n2\n", 0),
        ("4 3\n0 1 3\n0 1 2 3\n0 1 2\n", 0),
    ],
)
def test_cli_abstract_checked_systems_agree_with_oracle(
    tmp_path, capsys, text, element
):
    path = write(tmp_path, "s.txt", text)
    code, out, err = run(capsys, "abstract", path, "--check", "--oracle")
    assert (code, err) == (0, "")
    assert "property: ok\n" in out
    assert f"\nelement: {element}\n" in out
    assert "oracle: agree\n" in out


def test_cli_abstract_check_violation_exits_4(tmp_path, capsys):
    path = write(tmp_path, "s.txt", "4 2\n1 2\n1 2 3\n")
    code, out, _ = run(capsys, "abstract", path, "--check")
    assert code == 4
    assert "property: violation" in out
    assert "violation-sets: 0 1" in out


def test_cli_abstract_parse_error(tmp_path, capsys):
    path = write(tmp_path, "s.txt", "4\n0 1\n")
    code, out, err = run(capsys, "abstract", path)
    assert code == 2
    assert_error_only(out, err)


def test_cli_abstract_deep_order(tmp_path, capsys):
    # the report's trace lists the two levels the solver visits, whatever
    # the order
    for order in (10**6, 10**12):
        path = write(tmp_path, "s.txt", f"1 {order}\n0\n")
        code, out, _ = run(capsys, "abstract", path, "--check", "--oracle")
        assert code == 0
        assert "element: 0" in out
        assert out.count("- n: 1\n") == 2
        assert len(out.splitlines()) < 20


# an integer beyond float range meets the family's float directions
OVERFLOW_POINTS = "2 4\n1e308 -1e308\n1" + "0" * 310 + " 0\n0.5 1\n-2 3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "P", "--family", "downward-triangle"],
        ["verify", "P", "--family", "downward-triangle", "--candidate", "0 0"],
        ["plot", "P", "--family", "downward-triangle", "--svg", "O"],
        # exact integer projections: render_plot's float64 columns overflow
        pytest.param(
            ["plot", "P", "--family", "axis-box", "--svg", "O"],
            id="plot-columns",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_cli_float_overflow_exits_2(tmp_path, capsys, argv):
    points = write(tmp_path, "p.txt", OVERFLOW_POINTS)
    svg = str(tmp_path / "out.svg")
    argv = [{"P": points, "O": svg}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: int too large to convert to float\n"


@pytest.mark.parametrize(
    "command, points, normals, normal",
    [
        (
            ["compute"],
            "2 5\n0.5 1\n2 3\n1e308 -1e308\n1 1\n-2 3\n",
            "2 2\n-4 -3\n-1 1\n",
            "-4, -3",
        ),
        (
            ["verify", "--candidate=1e308 -1e308"],
            "2 3\n0 0\n1 1\n2 5\n",
            "2 2\n4 3\n-4 -3\n",
            "4, 3",
        ),
        (
            ["compute"],
            "2 4\n2 3\n1e308 -1e308\n0.5 1\n-2 3\n",
            "2 3\n2 -1\n-1 0\n0 1\n",
            "2, -1",
        ),
    ],
    ids=["compute-nan", "verify-candidate", "compute-inf"],
)
def test_cli_projection_overflow_exits_2(
    tmp_path, capsys, command, points, normals, normal
):
    # finite inputs whose float64 projections overflow once gave a verdict
    # from inf and nan comparisons, and numpy warnings on stderr
    points = write(tmp_path, "p.txt", points)
    normals = write(tmp_path, "n.txt", normals)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, command[0], points, "--family", "custom:" + normals,
            *command[1:],
        )
    assert (code, out, caught) == (2, "", [])
    assert err == (
        f"error: a projection along Orientation({normal}) overflows float64\n"
    )


def test_cli_missing_file_exits_2(capsys):
    code, out, err = run(
        capsys, "compute", "/nonexistent/p.txt", "--family", "axis-box"
    )
    assert code == 2
    assert_error_only(out, err)


@pytest.mark.parametrize(
    "argv, data",
    [
        (["abstract", "f.txt"], b"3 2\n0 1\n\xff1 2\n"),
        (["plot", "f.txt", "--family", "axis-box", "--svg", "out.svg"],
         b"2 2\n0 0\n1 \xff1\n"),
        (["compute", "p.txt", "--family", "custom:f.txt"],
         b"2 2\n1 0\n0 1\xff\n"),
    ],
    ids=["abstract", "plot", "custom-normals"],
)
def test_cli_non_utf8_byte_exits_2(tmp_path, capsys, monkeypatch, argv, data):
    # f.txt holds one byte that is not UTF-8; p.txt is a valid point file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_bytes(data)
    (tmp_path / "p.txt").write_text("2 2\n0 0\n1 1\n")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert_error_only(out, err)
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "out.svg").exists()


def test_cli_unknown_family_exits_2(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "2 1\n0 0\n")
    code, out, err = run(capsys, "compute", path, "--family", "dodecahedron")
    assert code == 2
    assert_error_only(out, err)


def test_cli_malformed_points_exits_2(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "2 2\n0 0\n")
    code, out, err = run(capsys, "compute", path, "--family", "axis-box")
    assert code == 2
    assert (out, err) == (
        "", "error: header promises 2 points, file has 1 rows\n"
    )


def test_cli_dimension_mismatch_exits_3(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "2 2\n0 0\n1 1\n")
    code, out, err = run(
        capsys, "verify", path, "--family", "axis-box", "--candidate", "1 1 1"
    )
    assert code == 3
    assert (out, err) == (
        "", "error: candidate has 3 coordinates, points have 2\n"
    )

    code, _, err = run(capsys, "compute", path, "--family", "downward-triangle")
    assert code == 0  # triangle family is d=2: fine here

    path3 = write(tmp_path, "q.txt", "3 1\n0 0 0\n")
    code, out, err = run(
        capsys, "compute", path3, "--family", "downward-triangle"
    )
    assert code == 3
    assert_error_only(out, err)


def test_cli_plot_writes_svg(tmp_path, capsys):
    inst = tightness_instance(axis_box_family(2), 8)
    path = write(tmp_path, "t.txt", format_points(inst.points))
    out_path = tmp_path / "t.svg"
    code, out, _ = run(
        capsys, "plot", path, "--family", "axis-box", "--svg", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<svg")
    assert "<polygon" in text


def test_cli_plot_rejects_non_planar_input(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "3 1\n0 0 0\n")
    out_path = tmp_path / "p.svg"
    code, _, err = run(
        capsys, "plot", path, "--family", "axis-box", "--svg", str(out_path)
    )
    assert code == 3
    assert not out_path.exists()


@pytest.mark.parametrize(
    "text",
    [
        # every coordinate rounds to 2**63 in float64: the box has no extent
        "2 2\n9223372036854775796 9223372036854775797\n"
        "9223372036854775803 9223372036854775790\n",
        # y spans 1000, but a pad of 150 is below the float spacing of x
        "2 2\n9223372036854775796 0\n9223372036854775803 1000\n",
    ],
)
def test_cli_plot_degenerate_view_box(tmp_path, capsys, text):
    path = write(tmp_path, "big.txt", text)
    out_path = tmp_path / "big.svg"
    code, _, err = run(
        capsys, "plot", path, "--family", "axis-box", "--svg", str(out_path)
    )
    assert (code, err) == (0, "")
    svg = out_path.read_text()
    assert svg.startswith("<svg") and "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize(
    "text",
    [
        "2 2\n1e308 1e308\n-1e308 -1e308\n",
        "2 2\n1e308 0\n-1e308 0\n",
        # the span 1.6e308 is finite, the padded width is not
        "2 2\n8e307 0\n-8e307 0\n",
        # a width of one subnormal gives an infinite scale
        "2 2\n0 0\n5e-324 0\n",
    ],
)
def test_cli_plot_view_box_overflow_exits_2(tmp_path, capsys, text):
    path = write(tmp_path, "huge.txt", text)
    out_path = tmp_path / "huge.svg"
    code, out, err = run(
        capsys, "plot", path, "--family", "axis-box", "--svg", str(out_path)
    )
    assert (code, out) == (2, "")
    assert err == "error: the plot's view box overflows float64\n"
    assert not out_path.exists()


def test_cli_plot_draws_a_line_with_offset_near_float_limit(tmp_path, capsys):
    # the normal 3 4 has offset 1.4e308 at the point (2e307, 2e307)
    big, far = 2 * 10**307, 10**307
    path = write(tmp_path, "p.txt", f"2 3\n{big} {big}\n0 0\n-{far} {far}\n")
    normals = write(tmp_path, "f.txt", "2 3\n3 4\n-3 -4\n1 -1\n")
    out_path = tmp_path / "p.svg"
    code, _, err = run(
        capsys, "plot", path, "--family", "custom:" + normals,
        "--svg", str(out_path),
    )
    assert (code, err) == (0, "")
    assert out_path.read_text().count("<line") == 3


def test_cli_plot_draws_a_line_with_normal_past_square_range(
    tmp_path, capsys
):
    # the normal 10**200 10**200+1 holds its points below offset about 4e200
    big = 10**200
    path = write(tmp_path, "p.txt", "2 3\n0 0\n4 0\n0 4\n")
    normals = write(
        tmp_path, "f.txt", f"2 3\n{big} {big + 1}\n{-big} {-big - 1}\n1 -1\n"
    )
    out_path = tmp_path / "p.svg"
    code, _, err = run(
        capsys, "plot", path, "--family", "custom:" + normals,
        "--svg", str(out_path),
    )
    assert (code, err) == (0, "")
    lines = re.findall(
        r'<line x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)"',
        out_path.read_text(),
    )
    # x + y = 4 runs corner to corner of the view box [-0.6, 4.6]^2, apart
    # from the line x + y = 0 of the second normal
    assert lines[0] == ("592.00", "592.00", "48.00", "48.00")
    assert len(set(lines)) == 3


# byte-exact plots of int64, mixed int/float and beyond-int64 columns
@pytest.mark.parametrize(
    "text, family, digest",
    [
        (
            "2 8\n" + "".join(f"{i % 3} {i * 7 % 5}\n" for i in range(8)),
            "axis-box",
            "7958e7e5ec3ee7dec7e5730c236386426535881c62985886c52786a61b70abde",
        ),
        (
            "2 5\n0.50 -0.0\n1.25 0\n-3 2.5\n0.0 0.0\n7 -1e3\n",
            "downward-triangle",
            "c70d519f6e681b074869bef21a1918e135d2fff59998d993c462bdd46751baee",
        ),
        (
            "2 4\n18446744073709551617 0\n-5 3\n0 -9223372036854775809\n"
            "7 7\n",
            "skyline",
            "ae640ad19e5a179fc01b253ee71a41ceddeb6b571c0966a85f3e4d6c5b3b64a4",
        ),
    ],
    ids=["int", "mixed", "beyond-int64"],
)
def test_cli_plot_svg_digest(tmp_path, capsys, text, family, digest):
    path = write(tmp_path, "p.txt", text)
    out_path = tmp_path / "p.svg"
    code, _, _ = run(
        capsys, "plot", path, "--family", family, "--svg", str(out_path)
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_cli_verify_negative_candidate_with_equals_sign(tmp_path, capsys):
    path = write(tmp_path, "p.txt", "1 3\n-5\n0\n5\n")
    code, out, _ = run(
        capsys, "verify", path, "--family", "axis-box", "--candidate=-1e3"
    )
    assert code == 1
    assert "candidate: -1e3\n" in out
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--candidate=-1e3" in capsys.readouterr().out


def test_cli_generate_tightness(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, out, _ = run(
        capsys,
        "generate", "tightness",
        "--family", "axis-box", "--d", "2", "--n", "8",
        "--out", str(out_path),
    )
    assert code == 0
    parsed = parse_point_file(out_path.read_text())
    assert len(parsed.rows) == 8


@pytest.mark.parametrize("jitter", ["nan", "inf"])
def test_cli_generate_tightness_rejects_non_finite_jitter(capsys, jitter):
    code, out, err = run(
        capsys, "generate", "tightness", "--n", "4", "--jitter", jitter
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: jitter must be a finite nonnegative number, got {jitter}\n"
    )


def test_cli_generate_random_deterministic(tmp_path, capsys):
    argv = ["generate", "random", "--seed", "9", "--n", "20", "--d", "2", "--k", "4"]
    a_path = tmp_path / "a.txt"
    b_path = tmp_path / "b.txt"
    for out_path in (a_path, b_path):
        code, _, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
    assert a_path.read_bytes() == b_path.read_bytes()
    # with no --out the same text goes to standard output
    assert run(capsys, *argv) == (0, a_path.read_text(), "")


def test_cli_generate_convex_position(tmp_path, capsys):
    out_path = tmp_path / "c.txt"
    code, _, _ = run(
        capsys, "generate", "convex-position", "--n", "8",
        "--out", str(out_path),
    )
    assert code == 0
    assert parse_point_file(out_path.read_text()).dim == 2


def test_cli_generate_degenerate(tmp_path, capsys):
    out_path = tmp_path / "d.txt"
    code, _, _ = run(
        capsys,
        "generate", "degenerate", "--kind", "all-collinear",
        "--out", str(out_path),
    )
    assert code == 0
    parsed = parse_point_file(out_path.read_text())
    assert len(parsed.rows) == 8


def test_cli_size_guard_env_override(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "s.txt", "5 2\n0 1 2\n2 3 4\n")
    monkeypatch.setenv("SC_SIZE_GUARD", "3")
    code, out, err = run(capsys, "abstract", path, "--oracle")
    assert (code, err) == (0, "")
    assert "\nelement: 2\n" in out
    assert f"\noracle: skipped ({refusal(8, 3)})\n" in out
    monkeypatch.setenv("SC_SIZE_GUARD", "100000000")
    code, out, _ = run(capsys, "abstract", path, "--oracle")
    assert code == 0
    assert "oracle: agree" in out
    # an empty value counts as unset
    monkeypatch.setenv("SC_SIZE_GUARD", "")
    check_size_guard(2)
    code, out, _ = run(capsys, "abstract", path, "--check")
    assert code == 0
    assert "property: ok" in out


@pytest.mark.parametrize("raw", ["0", "-3", "abc"])
def test_cli_size_guard_env_must_be_positive(tmp_path, capsys, monkeypatch, raw):
    path = write(tmp_path, "s.txt", "5 2\n0 1 2\n2 3 4\n")
    monkeypatch.setenv("SC_SIZE_GUARD", raw)
    message = f"SC_SIZE_GUARD must be a positive integer, got {raw!r}"
    with pytest.raises(ValueError) as info:
        check_size_guard(2)
    assert str(info.value) == message
    code, out, err = run(capsys, "abstract", path, "--check")
    assert (code, out) == (2, "")
    assert message in err


CONTAINS_FIXTURES = [
    "2 4\n0 0\n1 0\n2 0\n3 0\n",
    "2 8\n" + "".join(f"{i % 3} {i * 7 % 5}\n" for i in range(8)),
    "2 5\n0.50 -0.0\n1.25 0\n-3 2.5\n0.0 0.0\n7 -1e3\n",
    "2 4\n9007199254740995 0\n9007199254740995 1\n9007199254740995 2\n0.5 0\n",
    "3 4\n1000000000000000000000000000000 0 1\n0 2 3\n-5 -5 -5\n1 1 1\n",
]


@pytest.mark.parametrize("text", CONTAINS_FIXTURES)
@pytest.mark.parametrize("family", ["axis-box", "skyline", "orthant"])
def test_cli_contains_counts_match_per_point_loop(
    tmp_path, capsys, text, family
):
    path = write(tmp_path, "p.txt", text)
    code, out, _ = run(capsys, "compute", path, "--family", family)
    assert code == 0
    point_file = parse_point_file(text)
    points = list(map(point_file.point, range(len(point_file.rows))))
    cert = compute_strong_centerpoint(
        points, named_family(family, point_file.dim)
    )
    offsets = re.findall(r"^    offset: (.+)$", out, flags=re.M)
    contains = re.findall(r"^    contains: (\d+)$", out, flags=re.M)
    assert offsets == [format_number(h.offset) for h in cert.halfspaces]
    assert [int(c) for c in contains] == [
        sum(1 for p in points if h.contains(p))
        for h in cert.halfspaces
    ]


@pytest.fixture
def built_projectors(monkeypatch):
    built = []
    original = polytope._projection

    def counting_projection(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(polytope, "_projection", counting_projection)
    return built


def test_cli_compute_builds_one_projector(tmp_path, capsys, built_projectors):
    path = write(tmp_path, "p.txt", "2 4\n0 0\n1 0\n2 0\n3 0\n")
    code, out, _ = run(capsys, "compute", path, "--family", "axis-box")
    assert code == 0
    assert "verdict: ok" in out
    assert len(built_projectors) == 1
    svg = str(tmp_path / "out.svg")
    code, _, _ = run(
        capsys, "plot", path, "--family", "axis-box", "--svg", svg
    )
    assert code == 0
    assert len(built_projectors) == 2


def test_point_file_builds_one_projector_per_family(built_projectors):
    point_file = parse_point_file("2 4\n0 0\n1 0\n2 0\n3 0\n")
    family = axis_box_family(2)
    cert = compute_strong_centerpoint(point_file, family)
    for _ in range(5):
        assert verify_strong_centerpoint(point_file, family, cert.point)
    assert len(built_projectors) == 1
    other = named_family("skyline", 2)
    compute_strong_centerpoint(point_file, other)
    verify_strong_centerpoint(point_file, other, cert.point)
    verify_strong_centerpoint(point_file, family, cert.point)
    assert len(built_projectors) == 2


@pytest.mark.parametrize(
    "argv, parser",
    [
        (["compute", "P", "--family", "axis-box"], "parse_point_file"),
        (
            ["verify", "P", "--family", "axis-box", "--candidate", "1 0"],
            "parse_point_file",
        ),
        (["abstract", "S"], "parse_set_system"),
        # the exit-4 report of a violation is timed from the start too
        (["abstract", "V", "--check"], "parse_set_system"),
        # the clock starts before the command line is parsed
        (["compute", "P", "--family", "axis-box"], "_build_parser"),
    ],
)
def test_cli_time_ms_includes_parsing(
    tmp_path, capsys, monkeypatch, argv, parser
):
    points = write(tmp_path, "p.txt", "2 4\n0 0\n1 0\n2 0\n3 0\n")
    system = write(tmp_path, "s.txt", "3 2\n0 1\n1 2\n")
    violating = write(tmp_path, "v.txt", "4 2\n1 2\n1 2 3\n")
    argv = [{"P": points, "S": system, "V": violating}.get(a, a) for a in argv]
    _, fast, _ = run(capsys, *argv)
    original = getattr(cli, parser)

    def slow_parse(*args):
        time.sleep(0.05)
        return original(*args)

    monkeypatch.setattr(cli, parser, slow_parse)
    _, slow, _ = run(capsys, *argv)
    assert strip_timing(slow) == strip_timing(fast)
    assert int(re.search(r"^time-ms: (\d+)$", slow, flags=re.M).group(1)) >= 50


POINTS_ARGV = ["compute", "P", "--family", "axis-box"]
VERIFY_ARGV = ["verify", "P", "--family", "axis-box", "--candidate", "1 0"]


# perfbench's traced run (--trace 1) replaces these module attributes with
# timing wrappers; a command that stops calling them through the module
# would drop its spans without any other test failing.
@pytest.mark.parametrize(
    "module, name, argv",
    [
        (cli, "parse_point_file", POINTS_ARGV),
        (cli, "parse_point_file", VERIFY_ARGV),
        (cli, "compute_strong_centerpoint", POINTS_ARGV),
        (cli, "verify_strong_centerpoint", POINTS_ARGV),
        (cli, "verify_strong_centerpoint", VERIFY_ARGV),
        (cli, "input_digest", POINTS_ARGV),
        (cli, "input_digest", VERIFY_ARGV),
        (polytope, "kth_smallest", POINTS_ARGV),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_traced_names_are_called_through_their_modules(
    tmp_path, capsys, monkeypatch, module, name, argv
):
    points = write(tmp_path, "p.txt", "2 4\n0 0\n1 0\n2 0\n3 0\n")
    argv = [points if a == "P" else a for a in argv]
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls
