"""The three benchmark workloads and the rounds that measure them.

A round is a fixed list of operations, always the same for one workload,
so the share of failed operations does not depend on the seed or on how
many rounds fit in a run. Every operation's answer is checked with
:mod:`checks`; timings never include the checks.

cli-int           ``strongcenter compute`` and two ``verify`` commands as
                  child processes on an integer 3-D point file. The only
                  workload that parses files and builds reports.
api-float         ``compute_strong_centerpoint`` and a fixed batch of
                  ``verify_strong_centerpoint`` calls on in-memory float
                  points: no parsing, no report, float64 projections and
                  selection carry the time. The batch also holds the
                  exactness probes, which fail every time today.
abstract-planted  incidence construction, the recursive solver, the
                  bounded-intersection check and the oracle on a line
                  system and a plane system with planted heavy flats. The
                  only workload that reaches ``setsystem``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from strongcenter import (
    Orientation,
    OrientationFamily,
    Point,
    brute_force_strong_centerpoints,
    check_bounded_intersection,
    cli,
    compute_strong_centerpoint,
    downward_triangle_family,
    hyperplane_system,
    polytope,
    setsystem,
    strong_centerpoint,
    verify_strong_centerpoint,
)

import checks
import inputs
from tracing import Tracer, patched

#: Value of a per-layer metric whose layer the workload never reached.
ABSENT = -1.0

#: Per-layer time metrics: name -> (span name, "total" or "self").
LAYER_TIMES = {
    "cli.compute.self_s": ("cli.compute", "self"),
    "pointfile.parse_point_file_s": ("pointfile.parse_point_file", "total"),
    "report.input_digest_s": ("report.input_digest", "total"),
    "polytope.compute_strong_centerpoint_s": ("polytope.compute_strong_centerpoint", "total"),
    "polytope.compute_strong_centerpoint.self_s": ("polytope.compute_strong_centerpoint", "self"),
    "geometry.kth_smallest_s": ("geometry.kth_smallest", "total"),
    "polytope.verify_strong_centerpoint_s": ("polytope.verify_strong_centerpoint", "total"),
    "setsystem.hyperplane_system.lines_s": ("setsystem.hyperplane_system.lines", "total"),
    "setsystem.hyperplane_system.planes_s": ("setsystem.hyperplane_system.planes", "total"),
    "setsystem.strong_centerpoint_s": ("setsystem.strong_centerpoint", "total"),
    "setsystem.restrict_s": ("setsystem.restrict", "total"),
    "setsystem.check_bounded_intersection_s": ("setsystem.check_bounded_intersection", "total"),
    "setsystem.brute_force_strong_centerpoints_s": ("setsystem.brute_force_strong_centerpoints", "total"),
}

#: Per-layer metrics that are not span times, with their units.
LAYER_OTHERS = {
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "pointfile.bytes": "bytes",
    "polytope.points": "count",
    "polytope.orientations": "count",
    "polytope.region_size": "count",
    "polytope.column_bytes": "bytes",
    "polytope.verify_calls_per_command": "count",
    "setsystem.sets": "count",
    "setsystem.heavy_sets": "count",
    "setsystem.trace_levels": "count",
    "setsystem.check_pairs": "count",
}


class Tally:
    """Operations attempted and failed in one run.

    ``known_fault`` marks an operation that fails because of a fault the
    benchmark documents; it counts as failed but keeps the run correct.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}

    def record(self, name: str, problems: list, known_fault: bool = False):
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if known_fault:
            self.known[name] = problems[0]
        elif len(self.unexpected) < 20:
            self.unexpected.append(f"{name}: {'; '.join(problems[:3])}")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------------------ cli-int


class CliInt:
    """The CLI on an integer point file, one child process per command."""

    name = "cli-int"
    family = "axis-box"
    directions = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    import_code = "import strongcenter.cli"

    def __init__(self, seed: int, root, workdir):
        self.root = root
        coords = inputs.cli_points(seed)
        text = inputs.point_file_text(coords)
        self.data = text.encode()
        self.rows = text.splitlines()[1:]
        self.path = workdir / f"cli-int-{seed}.txt"
        self.path.write_bytes(self.data)
        proj = checks.project(coords, self.directions)
        self.expected = checks.expect_certificate(proj)
        self.chosen_problems = checks.centerpoint_problems(proj, self.expected.chosen)
        far = inputs.cli_far_candidate(seed)
        self.candidates = []
        for point in (tuple(coords[self.expected.chosen].tolist()), far):
            verdict = checks.expect_verdict(proj, checks.project_point(point, self.directions))
            self.candidates.append((" ".join(map(str, point)), verdict))
        # Commands run with bytecode caches, as an installed CLI does,
        # whatever the calling environment says; prepare() writes them.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def _child(self, args):
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True,
        )

    def prepare(self):
        self._child(["-c", self.import_code])  # writes the bytecode caches

    def startup(self) -> float:
        """Import time of the CLI module alone, measured inside a child."""
        code = f"import time; t = time.perf_counter(); {self.import_code}; " \
               "print(time.perf_counter() - t)"
        return statistics.median(float(self._child(["-c", code]).stdout) for _ in range(5))

    def _check(self, tally, op, code, out):
        if op == "compute":
            problems = checks.check_compute_report(
                out, code, self.expected, self.directions, self.data, self.rows
            )
            tally.record("compute", problems + self.chosen_problems)
        else:
            expected = self.candidates[op][1]
            tally.record(f"verify-{op}", checks.check_verify_report(
                out, code, expected, self.directions, self.data))

    def _argvs(self):
        path = str(self.path)
        yield "compute", ["compute", path, "--family", self.family]
        for i, (candidate, _) in enumerate(self.candidates):
            yield i, ["verify", path, "--family", self.family, "--candidate", candidate]

    def round(self, tally) -> dict:
        # set-up: starting Python and importing the CLI, as every command does
        times = {"setup": [_timed(self._child, ["-c", self.import_code])[1]],
                 "compute": [], "verify": []}
        for op, argv in self._argvs():
            proc, seconds = _timed(self._child, ["-m", "strongcenter", *argv])
            times["compute" if op == "compute" else "verify"].append(seconds)
            self._check(tally, op, proc.returncode, proc.stdout)
        return times

    def inprocess_round(self, tally, tracer) -> float:
        """The same commands run in this process through ``cli.main``."""
        targets = [
            (cli, "parse_point_file", "pointfile.parse_point_file"),
            (cli, "compute_strong_centerpoint", "polytope.compute_strong_centerpoint"),
            (cli, "verify_strong_centerpoint", "polytope.verify_strong_centerpoint"),
            (cli, "input_digest", "report.input_digest"),
            (polytope, "kth_smallest", "geometry.kth_smallest"),
        ]
        total = 0.0
        with patched(tracer, targets) if tracer else contextlib.nullcontext():
            for op, argv in self._argvs():
                out = io.StringIO()
                start = time.perf_counter()
                with _span(tracer, f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                total += time.perf_counter() - start
                self._check(tally, op, code, out.getvalue())
        return total

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)

    def counts(self, totals) -> dict:
        commands = sum(totals.get(f"cli.{c}", (0, 0, 0))[2] for c in ("compute", "verify"))
        verifies = totals.get("polytope.verify_strong_centerpoint", (0, 0, 0))[2]
        n = self.expected.n
        return {
            "pointfile.bytes": len(self.data),
            "polytope.points": n,
            "polytope.orientations": self.expected.k,
            "polytope.region_size": len(self.expected.region),
            "polytope.column_bytes": n * 3 * 8,
            "polytope.verify_calls_per_command": verifies / commands,
        }

    def cleanup(self):
        self.path.unlink(missing_ok=True)


class _InProcess:
    """A workload whose operations are library calls in this process."""

    targets = ()

    def prepare(self):
        pass

    def round(self, tally) -> dict:
        times = {"setup": [], "compute": [], "verify": []}
        self.ops(tally, None, times)
        return times

    def inprocess_round(self, tally, tracer) -> float:
        times = {"setup": [], "compute": [], "verify": []}
        with patched(tracer, self.targets) if tracer else contextlib.nullcontext():
            self.ops(tally, tracer, times)
        return sum(times["compute"]) + sum(times["verify"])

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_SELF)

    def cleanup(self):
        pass


# ---------------------------------------------------------------- api-float


class ApiFloat(_InProcess):
    """The library API on in-memory float points in the plane."""

    name = "api-float"
    targets = [(polytope, "kth_smallest", "geometry.kth_smallest")]

    def __init__(self, seed: int, root, workdir):
        self.seed = seed
        self.xy = inputs.api_points(seed)
        self.family = downward_triangle_family()
        self.directions = [o.direction for o in self.family]
        half_root3 = math.sqrt(3.0) / 2.0
        wanted = [(0.0, 1.0), (-half_root3, -0.5), (half_root3, -0.5)]
        if not np.allclose(self.directions, wanted, rtol=0, atol=1e-15):
            raise RuntimeError(f"unexpected downward-triangle normals {self.directions}")
        self.proj = checks.project(self.xy, self.directions)
        self.far = [Point(p) for p in inputs.api_far_candidates(seed)]
        self.far_verdicts = [
            checks.expect_verdict(self.proj, checks.project_point(p.coords, self.directions))
            for p in self.far
        ]
        self.probes = []
        for probe in inputs.exactness_probes():
            self.probes.append((
                probe.name,
                [Point(c) for c in probe.coords],
                OrientationFamily([Orientation(d) for d in probe.directions]),
                Point(probe.candidate),
                checks.expect_verdict_exact(probe.coords, probe.directions, probe.candidate),
                probe.directions,
            ))
        self.rounds = 0
        self.points = None
        self.region_size = None

    def _build(self, times):
        """Building the input ``Point`` objects and the family, timed as
        set-up. Each round presents the points in a fresh seeded order:
        quickselect's work depends on the order of its input, so the
        median over rounds does not hang on one draw. The objects are
        built in that order, as a caller building them would."""
        order = inputs.api_order(self.seed, self.rounds, len(self.xy))
        self.rounds += 1
        self.points = None  # drop the previous round's copy first
        rows = self.xy[order].tolist()  # fresh floats, laid out in this order
        start = time.perf_counter()
        points = [Point(x, y) for x, y in rows]
        family = downward_triangle_family()
        times["setup"].append(time.perf_counter() - start)
        self.points, self.family = points, family
        return points, self.proj[:, order]

    def ops(self, tally, tracer, times):
        points, proj = self._build(times)
        expected = checks.expect_certificate(proj)
        self.region_size = len(expected.region)

        with _span(tracer, "polytope.compute_strong_centerpoint"):
            cert, seconds = _timed(compute_strong_centerpoint, points, self.family)
        times["compute"].append(seconds)
        problems = checks.check_certificate(cert, expected, self.directions)
        if cert.point is not points[expected.chosen]:
            problems.append("certificate point is not the chosen input point")
        problems += checks.centerpoint_problems(proj, expected.chosen)
        tally.record("compute", problems)

        # the batch: the chosen point, another region member, two far
        # points, then the exactness probes
        members = (expected.chosen, expected.region[-1])
        batch = [(points, self.family, points[i]) for i in members]
        batch += [(points, self.family, p) for p in self.far]
        batch += [(pts, fam, cand) for _, pts, fam, cand, _, _ in self.probes]
        verdicts = []
        start = time.perf_counter()
        for pts, fam, cand in batch:
            with _span(tracer, "polytope.verify_strong_centerpoint"):
                verdicts.append(verify_strong_centerpoint(pts, fam, cand))
        times["verify"].append(time.perf_counter() - start)
        wanted = [checks.expect_verdict(proj, proj[:, i]) for i in members]
        wanted += self.far_verdicts
        for i, (verdict, expected_verdict) in enumerate(zip(verdicts, wanted)):
            tally.record(f"verify-{i}", checks.check_verdict(
                verdict, expected_verdict, self.directions))
        for verdict, (name, _, _, _, expected_verdict, directions) in zip(
            verdicts[len(wanted):], self.probes
        ):
            tally.record(name, checks.check_verdict(verdict, expected_verdict, directions),
                         known_fault=True)

    def counts(self, totals) -> dict:
        n = len(self.xy)
        return {
            "polytope.points": n,
            "polytope.orientations": self.family.k,
            "polytope.region_size": self.region_size,
            "polytope.column_bytes": n * 2 * 8,
        }


# --------------------------------------------------------- abstract-planted

# check_bounded_intersection estimates C(m, 2) * 2 * n for the line
# system, far above its default budget, though the check itself takes
# under a second; the public ``budget`` argument lets it run.
CHECK_BUDGET = 10**12


class AbstractPlanted(_InProcess):
    """Incidence systems of planted line and plane instances."""

    name = "abstract-planted"
    targets = [(setsystem, "restrict", "setsystem.restrict")]
    # one build of the ~90 input points takes well under a millisecond, so
    # a set-up sample times a batch of builds and gives the time per build
    builds_per_setup = 200

    def __init__(self, seed: int, root, workdir):
        self.instances = []
        for dim, planted in ((2, inputs.planted_line(seed)), (3, inputs.planted_plane(seed))):
            flats = [planted.flat] if dim == 2 else [planted.flat, planted.line]
            self.instances.append((dim, planted, np.array(planted.coords), flats))
        self.verified = {}
        self.last = None

    def _build(self, times):
        """Building the input ``Point`` objects of both instances."""
        start = time.perf_counter()
        for _ in range(self.builds_per_setup):
            points = [[Point(p) for p in planted.coords] for _, planted, _, _ in self.instances]
        times["setup"].append((time.perf_counter() - start) / self.builds_per_setup)
        return points

    def _check_system(self, dim, coords, system):
        # an answer identical to one already checked needs no second check
        if self.verified.get(dim) == system.sets:
            return []
        check = checks.check_line_system if dim == 2 else checks.check_plane_system
        problems = check(coords, system)
        if not problems:
            self.verified[dim] = system.sets
        return problems

    def ops(self, tally, tracer, times):
        compute = verify = 0.0
        systems, results = [], []
        for (dim, _, coords, flats), points in zip(self.instances, self._build(times)):
            tag = "lines" if dim == 2 else "planes"
            with _span(tracer, f"setsystem.hyperplane_system.{tag}"):
                system, seconds = _timed(hyperplane_system, points, dim)
            compute += seconds
            with _span(tracer, "setsystem.strong_centerpoint"):
                result, seconds = _timed(strong_centerpoint, system)
            compute += seconds
            tally.record(f"hyperplane-{tag}", self._check_system(dim, coords, system))
            tally.record(f"solver-{tag}", checks.check_solver(result, system, flats))
            systems.append(system)
            results.append(result)
        with _span(tracer, "setsystem.check_bounded_intersection"):
            violation, seconds = _timed(check_bounded_intersection, systems[0], budget=CHECK_BUDGET)
        verify += seconds
        tally.record("check-lines", [] if violation is None else [f"violation {violation}"])
        for system, tag in zip(systems, ("lines", "planes")):
            with _span(tracer, "setsystem.brute_force_strong_centerpoints"):
                oracle, seconds = _timed(brute_force_strong_centerpoints, system)
            verify += seconds
            tally.record(f"oracle-{tag}", checks.check_oracle(oracle, system))
        times["compute"].append(compute)
        times["verify"].append(verify)
        self.last = systems, results

    def counts(self, totals) -> dict:
        systems, results = self.last
        return {
            "setsystem.sets": sum(len(s.sets) for s in systems),
            "setsystem.heavy_sets": sum(
                checks.heavy(len(t), s.n, s.k) for s in systems for t in s.sets),
            "setsystem.trace_levels": sum(len(r.trace) for r in results),
            "setsystem.check_pairs": math.comb(len(systems[0].sets), 2),
        }


WORKLOADS = {w.name: w for w in (CliInt, ApiFloat, AbstractPlanted)}


# ------------------------------------------------------------------ runs


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _until(seconds, step, at_least=1):
    """Call ``step(i)`` for whole rounds until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < at_least or time.perf_counter() < deadline:
        step(i)
        i += 1
    return i


def measure(workload, seconds: float, tally) -> tuple:
    """Untraced run: the end-to-end metrics, each the median over rounds."""
    workload.prepare()
    times = {"setup": [], "compute": [], "verify": []}

    def step(_):
        for key, values in workload.round(tally).items():
            times[key].extend(values)

    rounds = _until(seconds, step)
    metrics = {
        "compute_s": _metric(statistics.median(times["compute"]), "s"),
        "verify_s": _metric(statistics.median(times["verify"]), "s"),
        "peak_rss_mb": _metric(workload.peak_rss_mb(), "MB"),
        "setup_s": _metric(statistics.median(times["setup"]), "s"),
    }
    return metrics, rounds


def measure_traced(workload, seconds: float, tally, trace_path, seed: int) -> tuple:
    """Traced run: the per-layer metrics.

    Untraced and traced rounds alternate in one process, both calling the
    program in-process; the difference of their median totals is the
    tracing overhead.
    """
    workload.prepare()
    startup = workload.startup() if hasattr(workload, "startup") else ABSENT
    plain, traced, per_round, records = [], [], [], []
    totals = {}

    def step(i):
        nonlocal totals
        if i % 2 == 0:
            plain.append(workload.inprocess_round(tally, None))
            return
        tracer = Tracer()
        traced.append(workload.inprocess_round(tally, tracer))
        totals = tracer.totals()
        per_round.append({
            metric: totals[span][0 if kind == "total" else 1]
            for metric, (span, kind) in LAYER_TIMES.items() if span in totals
        })
        records.extend(tracer.records(i))

    rounds = _until(seconds, step, at_least=2)
    metrics = {}
    for name in LAYER_TIMES:
        values = [r[name] for r in per_round if name in r]
        metrics[name] = _metric(statistics.median(values) if values else ABSENT, "s")
    others = {name: ABSENT for name in LAYER_OTHERS}
    others.update(workload.counts(totals))
    others["cli.startup_s"] = startup
    others["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name, unit in LAYER_OTHERS.items():
        metrics[name] = _metric(others[name], unit)
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "spans": records,
    }))
    return metrics, rounds
