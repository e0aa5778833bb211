#!/usr/bin/env bash
# CI entry point: tier-1 tests plus a fast benchmark smoke pass.
#
# The smoke pass runs the substrate micro-benchmarks at a tiny dataset
# scale (REPRO_BENCH_SCALE shrinks the macro fixtures) with one warmup
# round — enough to catch substrate regressions and import/bench-harness
# breakage without the minutes-long full benchmark suite.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== repro-lint (one rule per invariant: RL1xx per-file, RL2xx call-graph) =="
# Cold run (cache removed) then warm run, with wall-time budgets
# enforced (<10s cold, <2s warm) and JSON + SARIF artifacts written.
# lint_stats exits non-zero on any non-baselined finding or warning
# (an unused `# repro-lint: disable` comment).
python scripts/lint_stats.py --sarif .repro-lint.sarif \
    --json .repro-lint-report.json
python scripts/lint_report.py .repro-lint-report.json

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark smoke (micro substrate) =="
# --benchmark-disable-gc keeps the unit costs free of collector pauses,
# and is why no micro showed what the collector cost a heavy query; the
# heavy-partition flush case switches it back on inside its own callable
# and asserts that no collection starts during DagBuffer.flush at all.
REPRO_BENCH_SCALE=0.1 python -m pytest benchmarks/test_micro_substrate.py \
    -q --benchmark-warmup=off --benchmark-min-rounds=1 \
    --benchmark-disable-gc --benchmark-columns=median

echo "== selection smoke (paper-figure benches, example and CLI: outside testpaths) =="
# A selection API change breaks these silently otherwise.
REPRO_BENCH_SCALE=0.1 timeout 120 python -m pytest \
    benchmarks/test_table2_view_selection.py \
    benchmarks/test_ablation_cost_lambda.py -q --benchmark-warmup=off \
    --benchmark-min-rounds=1 --benchmark-columns=median
timeout 120 python examples/view_advisor.py > /dev/null
advise_xml="$(mktemp --suffix=.xml)"
python -m repro.cli generate nasa "$advise_xml" --scale 0.5 --seed 7
timeout 60 python -m repro.cli advise "$advise_xml" \
    "//dataset//tableHead[//tableLink//title]//field//definition//para"
rm -f "$advise_xml"

echo "== service smoke (parallel sequential-equality, workers=2) =="
python scripts/smoke_parallel.py

echo "== maintenance smoke (canned WAL replay vs golden rebuild) =="
python scripts/smoke_maintenance.py

echo "== shared-batch smoke (batch vs loop of evaluate() byte-equality) =="
timeout 120 python scripts/smoke_shared.py

echo "== advisor smoke (adoption cycle: identical answers, less work) =="
timeout 120 python scripts/smoke_advisor.py

echo "== serve smoke (1 ms quanta over HTTP == one-shot answer) =="
timeout 120 python scripts/smoke_serve.py

echo "== chaos smoke (fixed-seed fault plan, correct-or-typed) =="
# `timeout` is the outer wall-clock guard: a chaos regression that
# hangs (instead of returning typed outcomes) must fail CI, not wedge it.
timeout 300 python scripts/smoke_chaos.py

echo "== mvcc smoke (update storm: zero failed / degraded snapshot reads) =="
timeout 300 python scripts/smoke_mvcc.py

echo "== e2e benchmark smoke (four workloads at smoke size, oracle on) =="
# The repo's benchmark (BENCHMARK.json) end to end: every answer is
# checked against the naive matcher; a wrong one exits non-zero.
timeout 120 python3 benchmarks/e2e/run.py --smoke
