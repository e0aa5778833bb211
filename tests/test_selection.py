"""View-selection tests (paper Section V, Table II).

One cost function and one greedy; every case that costs a view runs once
per list-size source (exact / estimated / measured-first).
"""

from __future__ import annotations

import pytest

from repro.datasets import nasa as nasa_data
from repro.errors import SelectionError
from repro.selection import (
    CalibratedStatistics,
    DocumentStatistics,
    ExactSizes,
    residual_edges,
    select_views,
    view_cost,
)
from repro.storage.catalog import ViewCatalog
from repro.tpq.parser import parse_pattern
from repro.workloads import nasa as nasa_workload


@pytest.fixture(scope="module")
def nasa_doc():
    return nasa_data.generate(scale=2.0, seed=7)


@pytest.fixture(scope="module", params=["exact", "estimated", "measured"])
def sizes(request, nasa_doc):
    """The three ``|L_q|`` sources behind the one ``list_size`` contract."""
    if request.param == "exact":
        return ExactSizes(nasa_doc)
    stats = DocumentStatistics.collect(nasa_doc)
    if request.param == "estimated":
        return stats
    with ViewCatalog(nasa_doc) as catalog:
        catalog.add_all(nasa_workload.SELECTION_CANDIDATES, "LE")
        return CalibratedStatistics.from_catalog(catalog, stats)


def test_residual_edges():
    query = parse_pattern("//a[//b]//c//d")
    # view //a//c leaves a's edge to b uncovered and c's edge to d.
    view = parse_pattern("//a//c")
    assert residual_edges(view, query, "a") == 1   # (a, b)
    assert residual_edges(view, query, "c") == 1   # (c, d)
    # the full query as a view has no residual edges
    assert residual_edges(query, query, "a") == 0
    assert residual_edges(query, query, "c") == 0


def test_residual_edges_disconnected_view():
    query = parse_pattern("//a//b//c")
    view = parse_pattern("//a//c")  # (a,c) is not an edge of the query
    # a: edge (a, b) not in view -> 1; view edge (a, c) is not a query edge
    # of a, so a's query edges not in the view: just (a, b).
    assert residual_edges(view, query, "a") == 1
    # c: query edge (b, c) not in view -> 1.
    assert residual_edges(view, query, "c") == 1


def test_view_cost_lambda_weights(sizes):
    query = nasa_workload.SELECTION_QUERY
    view = parse_pattern("//dataset//tableHead")
    io_only = view_cost(view, query, sizes, lam=0.0)
    cpu_only = view_cost(view, query, sizes, lam=1.0)
    assert io_only.total == io_only.io_term
    assert cpu_only.total == cpu_only.cpu_term
    mixed = view_cost(view, query, sizes, lam=0.5)
    assert mixed.total == pytest.approx(
        0.5 * mixed.io_term + 0.5 * mixed.cpu_term
    )


def test_view_cost_validates(sizes):
    query = nasa_workload.SELECTION_QUERY
    with pytest.raises(SelectionError):
        view_cost(parse_pattern("//para//field"), query, sizes)
    for lam in (2.0, -1):
        with pytest.raises(SelectionError):
            view_cost(parse_pattern("//field//para"), query, sizes, lam=lam)


def test_view_cost_floor_reads_every_list_once(sizes):
    """``floored`` charges a list with no residual edge one pass, so the
    full query as its own view costs its total size, not zero."""
    query = nasa_workload.SELECTION_QUERY
    whole = view_cost(query, query, sizes)
    assert whole.cpu_term == 0.0
    assert whole.floored == whole.io_term
    part = view_cost(parse_pattern("//dataset//tableHead"), query, sizes)
    assert part.floored >= part.cpu_term


def test_table2_greedy_selects_cost_based_set(sizes):
    """The paper's heuristic picks {v2, v5, v6} for the Table II query —
    on exact, estimated and measured list sizes alike."""
    selection = select_views(
        nasa_workload.SELECTION_CANDIDATES,
        nasa_workload.SELECTION_QUERY,
        sizes,
        lam=1.0,
        require_complete=True,
    )
    names = tuple(sorted(view.name for view in selection.selected))
    assert names == tuple(sorted(nasa_workload.EXPECTED_SELECTION))
    assert selection.complete
    assert len(selection.trace) == len(selection.selected)


def test_greedy_ignores_non_subpatterns(sizes):
    candidates = [
        parse_pattern("//para//field", name="bogus"),  # inverted: unusable
        parse_pattern("//dataset//tableHead", name="v2"),
    ]
    selection = select_views(
        candidates, nasa_workload.SELECTION_QUERY, sizes
    )
    assert "bogus" not in selection.costs
    assert not selection.complete


def test_greedy_incomplete_raises_when_required(sizes):
    with pytest.raises(SelectionError):
        select_views(
            [parse_pattern("//dataset//tableHead", name="v2")],
            nasa_workload.SELECTION_QUERY,
            sizes,
            require_complete=True,
        )


def test_selected_set_is_minimal_cover(sizes):
    from repro.tpq.containment import is_minimal_covering_view_set

    selection = select_views(
        nasa_workload.SELECTION_CANDIDATES,
        nasa_workload.SELECTION_QUERY,
        sizes,
        require_complete=True,
    )
    assert is_minimal_covering_view_set(
        selection.selected, nasa_workload.SELECTION_QUERY
    )


def test_cost_based_beats_size_only_selection(nasa_doc):
    """Evaluating with the cost-based set does less work than with the
    size-only set (the paper reports a 1.93x gap)."""
    from repro.algorithms.engine import evaluate

    query = nasa_workload.SELECTION_QUERY
    by_name = {v.name: v for v in nasa_workload.SELECTION_CANDIDATES}
    cost_based = [by_name[n] for n in nasa_workload.EXPECTED_SELECTION]
    size_only = [by_name[n] for n in nasa_workload.SIZE_ONLY_SELECTION]
    with ViewCatalog(nasa_doc) as catalog:
        fast = evaluate(query, catalog, cost_based, "VJ", "LE")
        slow = evaluate(query, catalog, size_only, "VJ", "LE")
    assert fast.match_keys() == slow.match_keys()
    assert fast.counters.work < slow.counters.work
