"""Ablation A2: the cost-model weight lambda (paper Section V).

The paper observes evaluation is CPU-bound and fixes lambda = 1.  We sweep
lambda over [0, 1] on the Table II selection scenario and record which
view set the greedy picks and how much evaluation work the pick costs.
Expected: lambda = 1 (and nearby) reproduces the paper's {v2, v5, v6};
small lambda optimizes I/O volume instead and can pick a set that does
more evaluation work.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.algorithms.engine import evaluate
from repro.bench.report import format_table
from repro.selection import ExactSizes, select_views
from repro.storage.catalog import ViewCatalog
from repro.workloads import nasa

LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def sweep(nasa_doc):
    rows = []
    with ViewCatalog(nasa_doc) as catalog:
        for lam in LAMBDAS:
            selection = select_views(
                nasa.SELECTION_CANDIDATES,
                nasa.SELECTION_QUERY,
                ExactSizes(nasa_doc),
                lam=lam,
                require_complete=True,
            )
            result = evaluate(
                nasa.SELECTION_QUERY, catalog, selection.selected,
                "VJ", "LE", emit_matches=False,
            )
            rows.append(
                [
                    lam,
                    "+".join(sorted(v.name or "?" for v in selection.selected)),
                    result.counters.work,
                    result.io.logical_reads,
                    result.match_count,
                ]
            )
    write_report(
        "ablation_cost_lambda",
        "Ablation A2 — lambda sweep of the Section V cost model"
        " (Table II scenario):",
        format_table(
            ["lambda", "selected set", "eval work", "pages", "matches"],
            rows,
        ),
    )
    return rows


def test_lambda_one_matches_paper(sweep):
    row = next(row for row in sweep if row[0] == 1.0)
    assert row[1] == "+".join(sorted(nasa.EXPECTED_SELECTION))


def test_matches_invariant_across_lambdas(sweep):
    assert len({row[4] for row in sweep}) == 1


def test_lambda_one_among_cheapest(sweep):
    """The CPU-weighted pick is within the best work across the sweep."""
    best = min(row[2] for row in sweep)
    lambda_one = next(row for row in sweep if row[0] == 1.0)
    assert lambda_one[2] <= 1.2 * best


@pytest.mark.parametrize("lam", LAMBDAS)
def test_bench_selection(benchmark, nasa_doc, lam):
    def run():
        return select_views(
            nasa.SELECTION_CANDIDATES,
            nasa.SELECTION_QUERY,
            ExactSizes(nasa_doc),
            lam=lam,
            require_complete=True,
        ).selected

    assert len(benchmark(run)) > 0
