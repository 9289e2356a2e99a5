"""Tests of the benchmark's checkers, on instances small enough to work out
by hand. Each checker must accept the true answer and reject a corrupted
one. Run with ``python3 -m pytest perfbench`` from the root of the repo.
Only the last test, which holds BENCHMARK.json to the metrics the
benchmark emits, imports the program.
"""

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402

# Six points on a line, family {+x, -x}: n = 6, k = 2, rank 6 - 3 + 1 = 4.
# +x cuts at the 4th smallest of 0..5, which is 3; -x at the 4th smallest
# of 0..-5, which is -2. The region is x in [2, 3]: indices 2 and 3.
LINE = np.array([[0], [1], [2], [3], [4], [5]])
LINE_DIRS = ((1,), (-1,))
LINE_TEXT = "1 6\n0\n1\n2\n3\n4\n5\n"
LINE_ROWS = LINE_TEXT.splitlines()[1:]


def line_expected():
    return checks.expect_certificate(checks.project(LINE, LINE_DIRS))


def compute_report(offsets=(3, -2), contains=(4, 4), chosen=2, rank=4):
    digest = hashlib.sha256(LINE_TEXT.encode()).hexdigest()
    return (
        f"schema-version: 1\nmode: compute\ninput-sha256: {digest}\n"
        f"family: custom\nd: 1\nn: 6\nk: 2\nrank: {rank}\nhalfspaces:\n"
        f"  - orientation: 1\n    offset: {offsets[0]}\n    contains: {contains[0]}\n"
        f"  - orientation: -1\n    offset: {offsets[1]}\n    contains: {contains[1]}\n"
        f"region-size: 2\nregion-members: 2 3\nchosen-index: {chosen}\n"
        f"chosen-point: {chosen}\nverdict: ok\ntime-ms: 0\n"
    )


def check_report(text, code=0):
    return checks.check_compute_report(
        text, code, line_expected(), LINE_DIRS, LINE_TEXT.encode(), LINE_ROWS)


def test_expectation_matches_hand_computation():
    exp = line_expected()
    assert (exp.n, exp.k, exp.rank) == (6, 2, 4)
    assert exp.offsets == (3, -2)
    assert exp.contains == (4, 4)
    assert exp.region == (2, 3)
    assert exp.chosen == 2
    assert checks.centerpoint_problems(checks.project(LINE, LINE_DIRS), 2) == []


def test_compute_report_accepts_true_answer():
    assert check_report(compute_report()) == []


def test_compute_report_rejects_corruptions():
    assert check_report(compute_report(offsets=(4, -2)))  # offset off by one
    assert check_report(compute_report(contains=(4, 5)))
    assert check_report(compute_report(chosen=3))
    assert check_report(compute_report(rank=3))
    assert check_report(compute_report(), code=1)
    assert check_report(compute_report().replace("input-sha256: ", "input-sha256: 0"))


def test_point_below_too_many_is_not_a_centerpoint():
    # the point at 0 has 5 of 6 points strictly below it along -x
    proj = checks.project(LINE, LINE_DIRS)
    assert checks.centerpoint_problems(proj, 0)
    assert checks.expect_verdict(proj, [0, 0]) == (False, 1, 5)
    assert checks.expect_verdict(proj, [2, -2]) == (True, None, None)


def verify_report(verdict, witness=None, count=None):
    digest = hashlib.sha256(LINE_TEXT.encode()).hexdigest()
    text = f"mode: verify\ninput-sha256: {digest}\nverdict: {verdict}\n"
    if witness is not None:
        text += f"witness-orientation: {witness}\nwitness-count: {count}\n"
    return text


def test_verify_report_checks_verdict_witness_and_exit_code():
    data = LINE_TEXT.encode()
    reject = (False, 1, 5)
    assert checks.check_verify_report(
        verify_report("not-centerpoint", "-1", 5), 1, reject, LINE_DIRS, data) == []
    assert checks.check_verify_report(
        verify_report("not-centerpoint", "-1", 4), 1, reject, LINE_DIRS, data)
    assert checks.check_verify_report(
        verify_report("not-centerpoint", "1", 5), 1, reject, LINE_DIRS, data)
    assert checks.check_verify_report(
        verify_report("not-centerpoint", "-1", 5), 0, reject, LINE_DIRS, data)
    assert checks.check_verify_report(verify_report("ok"), 0, reject, LINE_DIRS, data)
    accept = (True, None, None)
    assert checks.check_verify_report(verify_report("ok"), 0, accept, LINE_DIRS, data) == []


def certificate(offsets=(3, -2), region=(2, 3), chosen=2, rank=4):
    halfspaces = tuple(
        NS(orientation=NS(direction=d), offset=o) for d, o in zip(LINE_DIRS, offsets)
    )
    return NS(halfspaces=halfspaces, region_members=region, chosen_index=chosen, rank=rank)


def test_certificate_checker():
    exp = line_expected()
    assert checks.check_certificate(certificate(), exp, LINE_DIRS) == []
    assert checks.check_certificate(certificate(offsets=(3, -3)), exp, LINE_DIRS)
    assert checks.check_certificate(certificate(region=(2,)), exp, LINE_DIRS)
    assert checks.check_certificate(certificate(chosen=3), exp, LINE_DIRS)


def test_verdict_checker():
    wrong_count = NS(ok=False, witness_orientation=NS(direction=(-1,)), witness_count=4)
    right = NS(ok=False, witness_orientation=NS(direction=(-1,)), witness_count=5)
    assert checks.check_verdict(right, (False, 1, 5), LINE_DIRS) == []
    assert checks.check_verdict(wrong_count, (False, 1, 5), LINE_DIRS)
    assert checks.check_verdict(NS(ok=True), (False, 1, 5), LINE_DIRS)


def test_probes_are_counted_exactly():
    one_d, two_d = inputs.exactness_probes()
    # all four points lie below the candidate; rounding would count one
    assert checks.expect_verdict_exact(one_d.coords, one_d.directions, one_d.candidate) == (
        False, 0, 4)
    assert checks.expect_verdict_exact(two_d.coords, two_d.directions, two_d.candidate) == (
        False, 0, 1000)


# Lines through (0,0) (1,0) (2,0) (0,1): {0,1,2}, {0,3}, {1,3}, {2,3}.
SQUARE = np.array([[0, 0], [1, 0], [2, 0], [0, 1]])
LINES = ((0, 1, 2), (0, 3), (1, 3), (2, 3))


def test_line_system_checker():
    assert checks.check_line_system(SQUARE, NS(n=4, k=2, sets=LINES)) == []
    non_maximal = ((0, 1), (0, 3), (1, 3), (2, 3))
    assert checks.check_line_system(SQUARE, NS(n=4, k=2, sets=non_maximal))
    not_collinear = ((0, 1, 3), (0, 1, 2), (2, 3))
    assert checks.check_line_system(SQUARE, NS(n=4, k=2, sets=not_collinear))
    missing = LINES[:-1]
    assert checks.check_line_system(SQUARE, NS(n=4, k=2, sets=missing))
    assert checks.check_line_system(SQUARE, NS(n=4, k=3, sets=LINES))


# The unit square in z = 0 and the apex (0,0,1): the square's plane and
# the six planes through the apex and two square corners.
PYRAMID = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
PLANES = ((0, 1, 2, 3), (0, 1, 4), (0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def test_plane_system_checker():
    assert checks.check_plane_system(PYRAMID, NS(n=5, k=3, sets=PLANES)) == []
    non_maximal = ((0, 1, 2),) + PLANES[1:]
    assert checks.check_plane_system(PYRAMID, NS(n=5, k=3, sets=non_maximal))
    not_coplanar = ((0, 1, 2, 4),) + PLANES[1:]
    assert checks.check_plane_system(PYRAMID, NS(n=5, k=3, sets=not_coplanar))
    assert checks.check_plane_system(PYRAMID, NS(n=5, k=3, sets=PLANES[:-1]))


def test_solver_and_oracle_checkers():
    # k = 2, n = 4: only {0,1,2} has more than n/2 members
    system = NS(n=4, k=2, sets=LINES)
    assert checks.heavy_intersection(system) == [0, 1, 2]
    planted = frozenset({0, 1, 2})
    assert checks.check_solver(NS(element=1, witness=None), system, [planted]) == []
    assert checks.check_solver(NS(element=3, witness=None), system, [planted])
    assert checks.check_solver(NS(element=None, witness=(0,)), system, [planted])
    assert checks.check_solver(NS(element=1, witness=None), system, [frozenset({0})])
    assert checks.check_oracle([0, 1, 2], system) == []
    assert checks.check_oracle([0, 1], system)


def test_planted_instances_have_their_heavy_flats():
    lines = inputs.planted_line(7)
    assert 0 not in lines.flat and 2 * len(lines.flat) > len(lines.coords)
    assert len(set(lines.coords)) == len(lines.coords)
    planes = inputs.planted_plane(7)
    n = len(planes.coords)
    assert 0 not in planes.flat and 3 * len(planes.flat) > 2 * n
    assert planes.line < planes.flat and 2 * len(planes.line) > len(planes.flat)
    assert len(set(planes.coords)) == n
    assert inputs.planted_line(7) == lines  # same seed, same inputs


def test_benchmark_json_lists_every_metric():
    import json

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import workloads

    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {name: "s" for name in workloads.LAYER_TIMES}
    emitted.update(workloads.LAYER_OTHERS)
    assert declared == emitted
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [
        "compute_s", "verify_s", "peak_rss_mb", "setup_s"]
