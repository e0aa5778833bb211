"""The whole suite: every workload, repeated, in subprocesses.

Each run is the command the driver runs (``run.py --workload ...``), so
``peak_rss_mb`` is the workload's own process and a run cannot warm the
next one.  The result is one JSON document for all numbers::

    {"schema": "viewjoin-e2e/1",
     "environment": {...},
     "workloads": {"engine_fig5": {
         "attempted": ..., "failed": ..., "samples": {...},
         "end_to_end": {"light_p50_ms": {"value": <median over reps>,
             "unit": "ms", "n": <reps>, "spread": <IQR / median>,
             "runs": [...]}, ...},
         "per_layer": {"tpq.parse_us": {"value": ..., "unit": "us"}, ...}}},
     "per_layer": {<each probe metric: best of the traced runs>}}

``compare.py`` reads two of these.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from repro.storage import Pager

from e2ebench import BENCH_DIR, REPO_ROOT, inputs, runner, workloads
from e2ebench.metrics import DIFFERENCES, EXACT, declared

SCHEMA = "viewjoin-e2e/1"


def spread(values) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"   # the driver's checkout is not a git repository


def environment(args) -> dict:
    pager = Pager()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "scale": inputs.SMOKE_SCALE if args.smoke else inputs.SCALE,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "reps": args.reps,
        "setup_reps": runner.SETUP_REPS,
        "slices": runner.SLICES,
        "pool_capacity_pages": pager.pool.capacity,
        "page_size": pager.page_size,
        "pass_sizes": {
            "engine_fig5": f"{workloads.ENGINE_ROTATIONS} x (11 light + 1 heavy)",
            "service_mix": f"{workloads.MIX_GROUPS_PER_PASS} x (4 singles + 1 batch of 12)",
            "serve_http": f"11 light, {workloads.HEAVY_STREAMS} heavy streams",
            "update_storm": f"{workloads.STORM_ROUNDS_PER_PASS} x (1 commit + 4 live + 1 pinned read)",
        },
    }


def run_once(name: str, args, trace: int) -> tuple[dict, dict]:
    """One ``run.py`` subprocess; returns (result line, sample counts)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["samples"]


def run_workload(name: str, args) -> dict:
    attempted = failed = 0
    runs: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for rep in range(args.reps):
        print(f"suite: {name} run {rep + 1}/{args.reps}", file=sys.stderr)
        result, samples = run_once(name, args, trace=0)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, row in result["metrics"].items():
            runs.setdefault(metric, []).append(row["value"])
            units[metric] = row["unit"]
    print(f"suite: {name} traced run", file=sys.stderr)
    traced, _samples = run_once(name, args, trace=1)
    return {
        "attempted": attempted + traced["attempted"],
        "failed": failed + traced["failed"],
        "samples": samples,
        "end_to_end": {
            metric: {
                "value": statistics.median(values), "unit": units[metric],
                "n": len(values), "spread": spread(values), "runs": values,
            }
            for metric, values in runs.items()
        },
        "per_layer": traced["metrics"],
    }


def best_of_layers(layers: list[dict]) -> dict:
    """Every traced run measured every layer: keep, per metric, the least
    disturbed of them — the best in the metric's own direction, as for the
    slices of a run; the median for a difference of two timings (exact
    counts are equal in all of them anyway)."""
    rows = {}
    for row in declared()["per_layer"]:
        metric = row["name"]
        if metric == "trace_overhead_ratio":
            continue   # belongs to its workload
        if metric in DIFFERENCES:
            pick = statistics.median
        else:
            pick = min if row["better"] == "lower" else max
        rows[metric] = {
            "value": pick(layer[metric]["value"] for layer in layers),
            "unit": row["unit"],
            "exact": metric in EXACT,
        }
    return rows


def main(args, names) -> int:
    document = {
        "schema": SCHEMA,
        "environment": environment(args),
        "workloads": {name: run_workload(name, args) for name in names},
    }
    document["per_layer"] = best_of_layers(
        [document["workloads"][name]["per_layer"] for name in names]
    )
    text = json.dumps(document, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    failed = sum(row["failed"] for row in document["workloads"].values())
    return 0 if failed == 0 else 1
