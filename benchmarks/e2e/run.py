"""End-to-end + per-layer benchmark of the whole stack.

One run of one workload (what the driver calls)::

    python3 benchmarks/e2e/run.py --workload engine_fig5 --seed 42 \
        --seconds 20 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The line before it carries the
run's sample counts.  It exits non-zero when an answer was wrong.

Without ``--workload`` it runs all four workloads ``--reps`` times each
plus one traced run, in subprocesses, and writes one result document
(environment stamp, medians, spreads) — see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of BENCHMARK.json's workloads;"
                        " omit to run the whole suite")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.5 and 1-second runs: checks the"
                             " harness, measures nothing")
    parser.add_argument("--reps", type=int, default=None,
                        help="suite: untraced runs per workload (default 5;"
                             " 1 with --smoke)")
    parser.add_argument("--out", help="suite: result file (default stdout)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        from e2ebench import inputs, metrics, runner, suite
    except ImportError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    declared = metrics.declared()
    names = [row["name"] for row in declared["workloads"]]
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(declared["run_seconds"])
    if args.workload is None:
        if args.reps is None:
            args.reps = 1 if args.smoke else 5
        return suite.main(args, names)
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    scale = inputs.SMOKE_SCALE if args.smoke else inputs.SCALE
    values, counts, checker = runner.measure(
        args.workload, inputs.Inputs(args.seed, scale), args.seconds,
        bool(args.trace),
    )
    for failure in checker.failures:
        print(f"run.py: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"samples": counts}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics.with_units(
            values, "per_layer" if args.trace else "end_to_end"
        ),
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
