"""Benchmark of the strongcenter program, run from the root of a checkout.

    python3 perfbench/run.py --workload cli-int --seed 1 --seconds 20 --trace 0

Workloads: cli-int, api-float, abstract-planted (see workloads.py). The
program is imported from ./src of the current directory, never from an
installed copy. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, and the spans are written to perfbench/work/.
"""

import os

# one process at a time and no extra threads, including numpy's
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli-int", "api-float", "abstract-planted")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "strongcenter" / "__init__.py").is_file():
        print(f"error: no strongcenter sources in {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import strongcenter

    if Path(strongcenter.__file__).resolve().parent != src / "strongcenter":
        print(f"error: imported strongcenter from {strongcenter.__file__}",
              file=sys.stderr)
        return 2

    import workloads

    workdir = HERE / "work"
    workdir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, root, workdir)
    tally = workloads.Tally()
    try:
        if args.trace:
            trace_path = workdir / f"trace-{args.workload}-{args.seed}.json"
            metrics, rounds = workloads.measure_traced(
                workload, args.seconds, tally, trace_path, args.seed)
            print(f"spans written to {trace_path.relative_to(root)}")
        else:
            metrics, rounds = workloads.measure(workload, args.seconds, tally)
    finally:
        workload.cleanup()

    print(f"{args.workload}: {rounds} rounds, {tally.attempted} operations "
          f"attempted, {tally.failed} failed")
    for name, problem in sorted(tally.known.items()):
        print(f"  known fault, {name}: {problem}")
    for problem in tally.unexpected:
        print(f"  WRONG {problem}")
    absent = [k for k, v in metrics.items() if v["value"] == workloads.ABSENT]
    if absent:
        print(f"  absent on this workload ({workloads.ABSENT}): {' '.join(absent)}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
