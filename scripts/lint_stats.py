#!/usr/bin/env python
"""CI gate for the whole-program lint: cold/warm timing + stats line.

Runs the full lint twice against the real package and committed
baseline — once cold (analysis cache removed first) and once warm
(cache populated by the cold run) — then prints one stats line per run:

    repro-lint cold: rules=15 files=90 graph_nodes=916 graph_edges=1610
        findings=0 warnings=0 wall=2.84s
    repro-lint warm: ... summary_hits=90 closure_hits=612 wall=1.42s

and enforces the performance budget (cold < 10 s, warm < 2 s —
scalable via ``REPRO_LINT_BUDGET_SCALE`` for slow CI machines).  Exit
status is non-zero on any non-baselined finding, any warning (an unused
``# repro-lint: disable`` comment: a retired code path must take its
suppressions with it) or budget violation.

Usage::

    python scripts/lint_stats.py [--sarif lint.sarif] [--json report.json]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.reporters import render_json, render_sarif  # noqa: E402
from repro.analysis.runner import (  # noqa: E402
    default_cache_path,
    lint_package,
)

COLD_BUDGET_SECONDS = 10.0
WARM_BUDGET_SECONDS = 2.0


def _stats_line(label: str, report) -> str:
    stats = report.stats
    parts = [
        f"rules={stats.module_rules + stats.program_rules}",
        f"files={stats.files}",
        f"graph_nodes={stats.graph_nodes}",
        f"graph_edges={stats.graph_edges}",
        f"findings={len(report.new_findings)}",
        f"warnings={len(report.warnings)}",
    ]
    for key in ("summary_hits", "closure_hits"):
        if stats.cache.get(key):
            parts.append(f"{key}={stats.cache[key]}")
    parts.append(f"wall={stats.duration_seconds:.2f}s")
    return f"repro-lint {label}: " + " ".join(parts)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sarif", help="write the warm run as SARIF here")
    parser.add_argument("--json", help="write the warm run as JSON here")
    args = parser.parse_args(argv[1:])

    scale = float(os.environ.get("REPRO_LINT_BUDGET_SCALE", "1"))
    cache_path = default_cache_path()
    try:
        cache_path.unlink()
    except OSError:
        pass

    cold = lint_package(cache_path=cache_path)
    print(_stats_line("cold", cold))
    warm = lint_package(cache_path=cache_path)
    print(_stats_line("warm", warm))

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(warm))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(render_json(warm))

    failed = False
    for finding in warm.new_findings:
        print(f"  {finding.location()}: {finding.code}: {finding.message}")
        failed = True
    for warning in warm.warnings:
        print(f"  {warning.location()}: warning: {warning.code}:"
              f" {warning.message}")
        failed = True
    if cold.stats.duration_seconds > COLD_BUDGET_SECONDS * scale:
        print(f"repro-lint: cold run {cold.stats.duration_seconds:.2f}s"
              f" exceeds budget {COLD_BUDGET_SECONDS * scale:.1f}s")
        failed = True
    if warm.stats.duration_seconds > WARM_BUDGET_SECONDS * scale:
        print(f"repro-lint: warm run {warm.stats.duration_seconds:.2f}s"
              f" exceeds budget {WARM_BUDGET_SECONDS * scale:.1f}s")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
