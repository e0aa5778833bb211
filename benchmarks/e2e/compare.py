"""Compare two suite results: ``compare.py A.json B.json`` (A = parent).

One row per (workload, end-to-end metric) with both medians, the wider
spread, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``             B's median is no worse than A's by more than the bound;
* ``regressed``      it is worse by more than the bound;
* ``unresolved``     a spread is wider than the bound — no verdict either
                     way (lengthen the runs or take more of them);
* ``not-comparable`` the machine-speed control ``tpq.naive_pass_ms`` differs
                     by more than 10 % between the two files.

Per-layer counts marked exact must be equal when the seeds are.  Exits 1
on a regression or a changed exact count.
"""

from __future__ import annotations

import json
import sys

CONTROL = "tpq.naive_pass_ms"
CONTROL_DRIFT = 0.10


def load(path):
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != "viewjoin-e2e/1":
        raise SystemExit(f"{path}: not a viewjoin-e2e/1 result")
    return document


def worsening(before: float, after: float, better: str) -> float:
    """By what share of ``before`` ``after`` is worse (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def verdict(row_a, row_b, metric, comparable: bool) -> tuple[str, float]:
    worse = worsening(row_a["value"], row_b["value"], metric["better"])
    if not comparable:
        return "not-comparable", worse
    if max(row_a["spread"], row_b["spread"]) > metric["bound"]:
        return "unresolved", worse
    return ("regressed" if worse > metric["bound"] else "ok"), worse


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    from e2ebench.metrics import declared

    a, b = load(argv[1]), load(argv[2])
    control_a = a["per_layer"][CONTROL]["value"]
    control_b = b["per_layer"][CONTROL]["value"]
    drift = (control_b - control_a) / control_a
    comparable = abs(drift) <= CONTROL_DRIFT
    print(f"control {CONTROL}: {control_a:.1f} -> {control_b:.1f} ms"
          f" ({drift:+.1%}){'' if comparable else '  NOT COMPARABLE'}")
    print(f"{'workload':<13} {'metric':<15} {'A':>11} {'B':>11} {'worse by':>9}"
          f" {'spread':>7} {'bound':>6}  verdict")
    bad = 0
    end_to_end = declared()["end_to_end"]
    for name, rows_a in a["workloads"].items():
        rows_b = b["workloads"][name]["end_to_end"]
        for metric in end_to_end:
            row_a, row_b = rows_a["end_to_end"][metric["name"]], rows_b[metric["name"]]
            what, worse = verdict(row_a, row_b, metric, comparable)
            bad += what == "regressed"
            print(f"{name:<13} {metric['name']:<15} {row_a['value']:>11.4g}"
                  f" {row_b['value']:>11.4g} {worse:>+9.1%}"
                  f" {max(row_a['spread'], row_b['spread']):>7.1%}"
                  f" {metric['bound']:>6.0%}  {what}")
        failed = b["workloads"][name]["failed"]
        if failed:
            bad += 1
            print(f"{name:<13} failed operations in B: {failed}")
    if a["environment"]["seed"] == b["environment"]["seed"] \
            and a["environment"]["scale"] == b["environment"]["scale"]:
        for metric, row in a["per_layer"].items():
            if row["exact"] and row["value"] != b["per_layer"][metric]["value"]:
                bad += 1
                print(f"exact count changed: {metric} {row['value']}"
                      f" -> {b['per_layer'][metric]['value']}")
    else:
        print("seeds or scales differ: exact counts not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
