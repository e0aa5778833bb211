"""The metric registry: ``BENCHMARK.json`` names every metric with its
unit, direction and bound; this module reads it and adds which per-layer
counts are exact."""

from __future__ import annotations

import json

from e2ebench import REPO_ROOT

#: Counts taken over a fixed sequence of calls: for the same seed they
#: must repeat bit-for-bit, and ``compare.py`` demands equality.
EXACT = frozenset({
    "storage.view_bytes",
    "storage.logical_reads_per_pass",
    "storage.physical_reads_per_pass",
    "storage.fsyncs_per_commit",
    "storage.pages_bytes_per_commit",
    "storage.archive_bytes_per_commit",
    "algorithms.work_per_pass",
    "algorithms.elements_scanned_per_pass",
    "algorithms.pointer_jumps_per_pass",
    "algorithms.entries_skipped_per_pass",
    "algorithms.comparisons_per_pass",
    "algorithms.ts_e_over_vj_le_work_ratio",
    "algorithms.peak_buffer_entries_max",
    "service.shared_jobs_per_query",
    "service.stream_spilled_bytes",
    "maintenance.action_share.noop",
    "maintenance.action_share.shift",
    "maintenance.action_share.splice",
    "maintenance.action_share.rebuild",
    "maintenance.wal_bytes_per_commit",
})

#: Differences of two timings: the noise of both sides is in them, so the
#: suite takes their median over its traced runs where it takes the best
#: (least disturbed) value of a plain timing.
DIFFERENCES = frozenset({
    "storage.commit_overhead_ms",
    "service.evaluate_overhead_us",
    "service.quantum_overhead_ms",
    "server.http_overhead_light_ms",
    "server.http_overhead_heavy_ms",
    "server.head_of_line_wait_ms",
})


def declared() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def with_units(values: dict, section: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics
    ``BENCHMARK.json`` declares in ``section``."""
    rows = declared()[section]
    missing = [row["name"] for row in rows if row["name"] not in values]
    extra = sorted(set(values) - {row["name"] for row in rows})
    if missing or extra:
        raise KeyError(
            f"{section}: not measured {missing}, not declared {extra}"
        )
    return {
        row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
        for row in rows
    }
