"""One run of one workload: set up, measure, check, summarize.

Steadiness.  The sandbox alternates between quiet spells and spells in
which everything runs 1.3-1.6x slower for seconds at a time (README,
"Noise").  Interference only ever adds time, so a run is cut into up to
``SLICES`` slices of whole passes, every metric is computed per slice,
and the run reports its best slice — the ``timeit`` rule, applied to
percentiles.  All slices of a workload have the same composition.  (A
rule "at least 100 light samples per slice", which left ``serve_http``
one slice and ``update_storm`` two, doubled their spreads: README.)
"""

from __future__ import annotations

import gc
import math
import pathlib
import resource
import statistics
import tempfile
import time

from e2ebench import OUT_DIR, probes
from e2ebench.check import Checker
from e2ebench.inputs import Inputs
from e2ebench.trace import OFF, Tracer
from e2ebench.workloads import WORKLOADS, Pass

#: Set-ups per run; ``setup_s`` is their median and the last one is
#: measured.  Every set-up rebuilds the whole stack from the seed.
SETUP_REPS = 3
SLICES = 8


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def slices(passes: list[Pass]) -> list[list[Pass]]:
    count = min(SLICES, len(passes))
    per = len(passes) // count
    return [passes[i * per:(i + 1) * per] for i in range(count)]


def rate(passes: list[Pass]) -> float:
    """Read queries answered per second of timed wall."""
    return sum(done.queries for done in passes) / sum(done.wall for done in passes)


def end_to_end(passes: list[Pass], setup_times, rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run (values only)."""
    throughput, light_p50, light_p95, heavy_p50 = [], [], [], []
    for group in slices(passes):
        throughput.append(rate(group))
        light = [x for done in group for x in done.light]
        heavy = [x for done in group for x in done.heavy]
        light_p50.append(percentile(light, 0.50))
        light_p95.append(percentile(light, 0.95))
        heavy_p50.append(percentile(heavy, 0.50))
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_qps": max(throughput),
        "light_p50_ms": min(light_p50) * 1e3,
        "light_p95_ms": min(light_p95) * 1e3,
        "heavy_p50_ms": min(heavy_p50) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def sample_counts(passes: list[Pass]) -> dict:
    groups = slices(passes)
    return {
        "passes": len(passes),
        "slices": len(groups),
        "light_per_slice": sum(len(done.light) for done in groups[0]),
        "heavy_per_slice": sum(len(done.heavy) for done in groups[0]),
        "queries": sum(done.queries for done in passes),
        "wall_s": sum(done.wall for done in passes),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(cls, inputs: Inputs, workdir: pathlib.Path):
    """Build the stack ``SETUP_REPS`` times; returns (workload, times)."""
    times = []
    workload = None
    for rep in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        workload = cls(inputs, workdir / f"setup-{rep}")
        workload.workdir.mkdir(parents=True)
        begin = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - begin)
    return workload, times


def measure(name: str, inputs: Inputs, seconds: float, traced: bool):
    """One run.  Returns (metrics, sample counts, checker).

    Untraced: the end-to-end metrics.  Traced: the first half of
    ``seconds`` runs with tracing off and the second half with spans on
    (their throughput ratio is ``trace_overhead_ratio``), the spans go to
    ``out/trace-<workload>.json``, and the per-layer probes run.
    """
    OUT_DIR.mkdir(exist_ok=True)
    checker = Checker()
    system_tmp = tempfile.tempdir
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{name}-") as tmp:
        workdir = pathlib.Path(tmp)
        # the program's own temporary files (disk-mode spill pages) stay
        # inside the checkout too
        tempfile.tempdir = tmp
        # input generation, not set-up: made before the stack is built
        deltas = inputs.deltas(seconds) if name == "update_storm" else None
        # the harness's own document must not tax the program's collector
        gc.freeze()
        workload, setup_times = set_up(WORKLOADS[name], inputs, workdir)
        try:
            if deltas is not None:
                workload.deltas = deltas
            if not traced:
                passes = workload.run(seconds, OFF, checker)
                metrics = end_to_end(passes, setup_times, peak_rss_mb())
                counts = sample_counts(passes)
            else:
                tracer = Tracer()
                untraced = workload.run(seconds / 2, OFF, checker)
                passes = workload.run(seconds / 2, tracer, checker)
                tracer.write(OUT_DIR / f"trace-{name}.json")
                metrics = {"trace_overhead_ratio": rate(passes) / rate(untraced)}
                counts = {
                    **sample_counts(passes),
                    "span_self_s": tracer.self_seconds(),
                }
            workload.verify(checker)
            if traced:
                metrics.update(probes.run_all(inputs, workdir))
        finally:
            workload.close()
            tempfile.tempdir = system_tmp
    return metrics, counts, checker
