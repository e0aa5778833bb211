"""Smoke test of the benchmark harness (scale 0.5, 1-second runs).

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1's
``testpaths = ["tests"]`` does not collect it.  It checks the harness,
not the program's speed: the contract of ``BENCHMARK.json``, that every
declared metric is emitted, that answers are checked, and that the exact
counts repeat.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

import e2ebench
from e2ebench import inputs, metrics, runner

HERE = pathlib.Path(__file__).parent
DECLARED = metrics.declared()
WORKLOADS = [row["name"] for row in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke_inputs():
    return inputs.Inputs(seed=42, scale=inputs.SMOKE_SCALE)


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = WORKLOADS + [
        row["name"] for row in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in DECLARED["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
    for row in DECLARED["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in DECLARED["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    setup = [r for r in DECLARED["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    declared_layers = {row["name"] for row in DECLARED["per_layer"]}
    assert metrics.EXACT <= declared_layers


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    values, counts, checker = runner.measure(name, smoke_inputs(), 1.0, False)
    rows = metrics.with_units(values, "end_to_end")   # raises on a mismatch
    assert all(row["value"] > 0 for row in rows.values())
    assert checker.failed == 0, checker.failures
    assert checker.attempted >= counts["queries"] >= 1


def test_traced_run_emits_every_layer_and_exact_counts_repeat():
    first, _counts, checker = runner.measure(
        "update_storm", smoke_inputs(), 1.0, True
    )
    assert checker.failed == 0, checker.failures
    metrics.with_units(first, "per_layer")
    spans = json.loads((e2ebench.OUT_DIR / "trace-update_storm.json").read_text())
    assert {"id", "parent", "request", "name", "start", "end"} == set(
        spans["spans"][0]
    )
    second, _counts, _checker = runner.measure(
        "engine_fig5", smoke_inputs(), 1.0, True
    )
    changed = {
        name: (first[name], second[name])
        for name in metrics.EXACT if first[name] != second[name]
    }
    assert not changed


def test_a_wrong_answer_is_a_failed_operation():
    from e2ebench.check import Checker

    document = smoke_inputs().document
    checker = Checker()
    checker.answer("//site//regions", 0, [(-1, -1)])
    checker.answer("//site//regions", 0, [(-1, -1)])     # a repeat
    checker.answer("//site//regions", 0, [(-1, -2)])     # a repeat that differs
    checker.verify(lambda generation: document, lambda keys: keys)
    # the kept answer is not the oracle's: both operations that returned
    # it fail, and so does the repeat that disagreed with it
    assert (checker.attempted, checker.failed) == (3, 3)


def test_command_prints_the_result_line_and_compare_accepts_it(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "service_mix",
         "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        row["name"] for row in DECLARED["end_to_end"]
    }

    out = tmp_path / "suite.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text())
    assert document["schema"] == "viewjoin-e2e/1"
    assert {"cpu_count", "python", "git_commit", "scale", "seed",
            "pool_capacity_pages", "page_size", "reps"} <= set(
        document["environment"])
    assert set(document["workloads"]) == set(WORKLOADS)
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "regressed" not in done.stdout
