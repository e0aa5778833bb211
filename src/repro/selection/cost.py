"""Evaluation cost model for ViewJoin (paper Section V).

For a query ``Q`` and a candidate view ``v`` (a subpattern of ``Q``)::

    c(v, Q) = (1 - lambda) * sum_q |L_q|  +  lambda * sum_q |L_q| * e_q

where the sums range over the query nodes covered by ``v``, ``|L_q|`` is
the size of the view's q-type list, and ``e_q`` is the number of edges of
``q`` in ``Q`` that are *not* present in ``v`` (the joins left to compute —
the interleaving conditions).  The first term models the I/O of reading the
view; the second the CPU cost of the residual structural joins.

The paper observes query evaluation is CPU-bound and fixes ``lambda = 1``;
the ablation benchmark sweeps it.

Where ``|L_q|`` comes from is the caller's decision: :func:`view_cost`
takes a *sizes* source (:mod:`repro.selection.estimates` — exact,
estimated or measured-first) and is the only cost function there is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SelectionError
from repro.tpq.containment import is_subpattern
from repro.tpq.pattern import Pattern, PatternNode


@dataclass
class ViewCost:
    """Cost breakdown of evaluating a query with one view."""

    view: Pattern
    io_term: float
    cpu_term: float
    lam: float
    #: ``sum_q |L_q| * max(e_q, 1)``: the ``lambda = 1`` cost with every
    #: list read at least once.  The advisor prices candidates against
    #: base views with it — a view whose joins are all precomputed still
    #: costs one pass over its lists (reading is never free).
    floored: float

    @property
    def total(self) -> float:
        return (1.0 - self.lam) * self.io_term + self.lam * self.cpu_term


def residual_edges(view: Pattern, query: Pattern, tag: str) -> int:
    """``e_q``: edges of query node ``tag`` in Q that are not edges of ``v``.

    An edge of Q incident to ``tag`` is "present in v" when both endpoints
    belong to ``v`` and they are adjacent in ``v`` as well (the join is
    precomputed); every other incident Q-edge must be evaluated at query
    time and charges ``|L_q|`` comparisons.
    """
    qnode = query.node(tag)
    count = 0
    for neighbour in _neighbours(qnode):
        if not view.has_tag(neighbour.tag):
            count += 1
            continue
        vnode = view.node(tag)
        vparent = vnode.parent.tag if vnode.parent is not None else None
        vchildren = {child.tag for child in vnode.children}
        if neighbour.tag != vparent and neighbour.tag not in vchildren:
            count += 1
    return count


def _neighbours(qnode: PatternNode) -> list[PatternNode]:
    result = list(qnode.children)
    if qnode.parent is not None:
        result.append(qnode.parent)
    return result


def view_cost(
    view: Pattern, query: Pattern, sizes, lam: float = 1.0
) -> ViewCost:
    """Compute ``c(v, Q)`` on the list sizes ``sizes`` reports.

    Args:
        view: candidate view; must be a subpattern of ``query``.
        query: the query.
        sizes: the ``|L_q|`` source — any object with
            ``list_size(view, tag) -> float``
            (:mod:`repro.selection.estimates`).
        lam: the weight parameter (paper default 1.0 — CPU-bound).

    Raises:
        SelectionError: if ``view`` is not a subpattern of ``query`` or
            ``lam`` is outside [0, 1].
    """
    if not 0.0 <= lam <= 1.0:
        raise SelectionError(f"lambda must be in [0, 1], got {lam}")
    if not is_subpattern(view, query):
        raise SelectionError(
            f"view {view.to_xpath()} is not a subpattern of {query.to_xpath()}"
            " and cannot be used to answer it"
        )
    io_term = 0.0
    cpu_term = 0.0
    floored = 0.0
    for vnode in view.nodes:
        tag = vnode.tag
        size = sizes.list_size(view, tag)
        edges = residual_edges(view, query, tag)
        io_term += size
        cpu_term += size * edges
        floored += size * max(edges, 1)
    return ViewCost(
        view=view, io_term=io_term, cpu_term=cpu_term, lam=lam,
        floored=floored,
    )
