"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload query-bulk --seed 1 --seconds 12 --trace 0

Run from the root of a checkout of the repository (the program is
imported from ``src/``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced
run.  The line before it is the run's record: raw (uncalibrated) values
and the calibration samples.  Scratch files go to ``.perfbench_out/``
and are removed at exit.  The exit code is 0 only when every answer
checked out.  See README.md in this directory.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> module in this directory with its ``run(ctx)``.
MODULES = {"query-bulk": "bulk", "tcp-small-frames": "tcp", "live-churn": "churn"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {SRC / 'repro'} is missing "
            f"(run from the root of a checkout of the repository)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and every process it starts (children
    # inherit the mask), so the reference slices time the CPU that all
    # the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import importlib

    from harness import Context

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        started=STARTED,
        scratch=scratch,
    )
    try:
        result = importlib.import_module(MODULES[args.workload]).run(ctx)
    finally:
        ctx.sampler.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    for example in ctx.checker.examples:
        print(f"perfbench: WRONG {example}", file=sys.stderr)
    print(json.dumps({"record": result.record}, sort_keys=True))
    print(json.dumps(result.line(), sort_keys=False))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
