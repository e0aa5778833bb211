"""View advisor: cost-based view selection (paper Section V, Table II).

Given a query and a pool of candidate materialized views, the advisor
costs each candidate with ``c(v, Q) = (1-lambda)*sum|L_q| +
lambda*sum|L_q|*e_q`` and greedily assembles a covering set by benefit.
The example reproduces the paper's Table II scenario and then contrasts
the cost-based pick with a naive size-only pick by actually evaluating
the query with both.

Run with::

    python examples/view_advisor.py
"""

from repro.algorithms.engine import evaluate
from repro.bench.report import format_table
from repro.datasets import nasa as nasa_data
from repro.selection import (
    DocumentStatistics,
    ExactSizes,
    recommend_for_workload,
    select_views,
)
from repro.storage.catalog import ViewCatalog
from repro.workloads import nasa


def main() -> None:
    document = nasa_data.generate(scale=3.0, seed=42)
    query = nasa.SELECTION_QUERY
    candidates = nasa.SELECTION_CANDIDATES
    print(f"query: {query.to_xpath()}")
    print(f"candidates: {[v.name for v in candidates]}\n")

    selection = select_views(
        candidates, query, ExactSizes(document), lam=1.0,
        require_complete=True,
    )
    rows = [
        [
            name,
            cost.view.to_xpath(),
            round(cost.io_term),
            round(cost.cpu_term),
            round(cost.total),
        ]
        for name, cost in sorted(selection.costs.items())
    ]
    print(format_table(["view", "pattern", "|L| total", "cpu", "c(v,Q)"],
                       rows))
    print(f"\ngreedy trace: {selection.trace}")
    print(f"selected: {[v.name for v in selection.selected]}"
          f" (paper Table II: {list(nasa.EXPECTED_SELECTION)})\n")

    by_name = {v.name: v for v in candidates}
    size_only = [by_name[n] for n in nasa.SIZE_ONLY_SELECTION]
    with ViewCatalog(document) as catalog:
        fast = evaluate(query, catalog, selection.selected, "VJ", "LE")
        slow = evaluate(query, catalog, size_only, "VJ", "LE")
    assert fast.match_keys() == slow.match_keys()
    gap = slow.counters.work / max(fast.counters.work, 1)
    print(
        f"cost-based set work: {fast.counters.work};"
        f" size-only set work: {slow.counters.work};"
        f" gap {gap:.2f}x (paper reports 1.93x)"
    )

    # Going further: what if no candidate pool is given at all?  The
    # advisor enumerates the query's connected subpatterns and recommends
    # what to materialize, using only one pass of document statistics —
    # a single query is a workload of one.
    print("\n== advisor: recommending views from scratch ==")
    advice = recommend_for_workload(
        [query], DocumentStatistics.collect(document), max_view_size=4
    )
    for chosen in advice.chosen[:5]:
        print(
            f"  {chosen.view.to_xpath():45s}"
            f" saving {chosen.total_saving:9.0f}"
            f"  est. bytes {chosen.estimated_bytes:9.0f}"
        )
    recommended = advice.assignments[query.name or query.to_xpath()]
    print(f"recommended: {[v.to_xpath() for v in recommended]}")
    covered = {tag for view in recommended for tag in view.tag_set()}
    uncovered = [tag for tag in query.tags() if tag not in covered]
    if uncovered:
        print(f"left to base views: {uncovered}")

if __name__ == "__main__":
    main()
