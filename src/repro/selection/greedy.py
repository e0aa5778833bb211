"""Greedy view selection (paper Section V).

Given a set of candidate views ``V`` and a query ``Q``, iteratively pick
the unselected view with the largest benefit ``|N_v| / c(v, Q)``, where
``N_v`` is the set of query nodes covered by ``v`` and by no already
selected view — the data-cube greedy of Harinarayan et al. applied to the
Section V cost model.  Views that are not subpatterns of ``Q`` are dropped
up front; the heuristic stops when all query nodes are covered or no
candidate can extend the cover.  Runs in ``O(|Q| * |V|)`` benefit updates.

This is the package's one greedy loop; the list sizes the costs are
computed on come from whichever source the caller passes
(:mod:`repro.selection.estimates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SelectionError
from repro.selection.cost import ViewCost, view_cost
from repro.tpq.containment import is_subpattern
from repro.tpq.pattern import Pattern


@dataclass
class SelectionResult:
    """Outcome of the greedy selection.

    Attributes:
        selected: chosen views in selection order.
        costs: the ``c(v, Q)`` cost of every usable candidate.
        covered: query tags covered by the selection.
        complete: True iff the selection covers every query node.
        trace: per-round (view, benefit) decisions for explainability.
    """

    selected: list[Pattern]
    costs: dict[str, ViewCost]
    covered: set[str]
    complete: bool
    trace: list[tuple[str, float]] = field(default_factory=list)


def select_views(
    candidates: list[Pattern],
    query: Pattern,
    sizes,
    lam: float = 1.0,
    require_complete: bool = False,
) -> SelectionResult:
    """Greedily select a covering view set for ``query``.

    Args:
        candidates: candidate view patterns (non-subpatterns are ignored).
        query: the query to answer.
        sizes: the ``|L_q|`` source the costs are computed on
            (``list_size(view, tag) -> float``).
        lam: cost-model weight (paper fixes 1.0).
        require_complete: raise instead of returning a partial cover.

    Returns:
        The selection result; ``selected`` is a minimal covering set for
        the benefit order chosen (condition (1) of the paper's loop).

    Raises:
        SelectionError: if ``require_complete`` and ``candidates`` cannot
            answer the query.
    """
    usable: list[Pattern] = []
    costs: dict[str, ViewCost] = {}
    for view in candidates:
        if not is_subpattern(view, query):
            continue
        costs[_key(view)] = view_cost(view, query, sizes, lam=lam)
        usable.append(view)

    query_tags = query.tag_set()
    covered: set[str] = set()
    selected: list[Pattern] = []
    trace: list[tuple[str, float]] = []
    remaining = list(usable)
    while covered != query_tags and remaining:
        best: Pattern | None = None
        best_benefit = 0.0
        for view in remaining:
            newly = (view.tag_set() & query_tags) - covered
            if not newly:
                continue
            cost = costs[_key(view)].total
            benefit = len(newly) / cost if cost > 0 else float("inf")
            if best is None or benefit > best_benefit:
                best, best_benefit = view, benefit
        if best is None:
            break
        selected.append(best)
        covered |= best.tag_set() & query_tags
        remaining = [view for view in remaining if view is not best]
        trace.append((_key(best), best_benefit))

    complete = covered == query_tags
    if require_complete and not complete:
        missing = sorted(query_tags - covered)
        raise SelectionError(
            f"candidate views cannot answer the query; uncovered nodes:"
            f" {missing}"
        )
    return SelectionResult(
        selected=selected,
        costs=costs,
        covered=covered,
        complete=complete,
        trace=trace,
    )


def _key(view: Pattern) -> str:
    return view.name or view.to_xpath()
