"""Where ``|L_q|`` comes from: the list-size sources of view selection.

The Section V cost model needs the materialized list sizes ``|L_q|`` of
every candidate view.  Every consumer in this package —
:func:`~repro.selection.cost.view_cost`,
:func:`~repro.selection.greedy.select_views`,
:func:`~repro.selection.workload_advisor.recommend_for_workload`,
:func:`~repro.selection.online.plan_adoption` — takes a *sizes* object
with one method::

    sizes.list_size(view, tag) -> float

and the caller decides which of the three sources below it passes:

* :class:`ExactSizes` — the view's solution nodes on the document, one
  naive-matcher pass per distinct view (memoised).  The only place in
  this package that runs the matcher.
* :class:`DocumentStatistics` — estimated from one-pass document
  statistics, the classic System-R style independence assumption
  applied to structural predicates, so no candidate is materialized::

      |L_q| ~= count(tag) * prod P(has alpha-ancestor)   for view ancestors
                          * prod P(has delta-descendant) for subtree tags

  The statistics themselves are exact (computed in one ancestor-walk
  pass): per-tag node counts, the number of ``t``-nodes with at least
  one ``a``-tagged ancestor, and the number of ``a``-nodes with at least
  one ``t``-tagged descendant.  Only the independence combination is
  approximate.
* :class:`CalibratedStatistics` — measured first: the exact per-tag
  entry counts materialized views already store (harvested by
  :func:`catalog_list_sizes`, or carried by a recorded workload log),
  with either source above as the fallback for never-materialized
  patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.tpq.matching import solution_nodes
from repro.tpq.pattern import Pattern
from repro.xmltree.document import Document


class ExactSizes:
    """Exact ``|L_q|``: the sizes materialization would store.

    Runs the naive two-pass matcher over the whole document once per
    distinct view (memoised by canonical xpath), so it is the source for
    offline selection over a handful of candidates and the fallback for
    views whose stored lists cannot be read (tuple scheme).
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self._memo: dict[str, dict[str, int]] = {}

    def list_size(self, view: Pattern, tag: str) -> float:
        xpath = view.to_xpath()
        sizes = self._memo.get(xpath)
        if sizes is None:
            sizes = {
                vtag: len(nodes)
                for vtag, nodes in solution_nodes(self.document, view).items()
            }
            self._memo[xpath] = sizes
        return float(sizes.get(tag, 0))


@dataclass
class DocumentStatistics:
    """One-pass structural statistics of a document.

    Attributes:
        tag_counts: nodes per tag.
        with_ancestor: ``(tag, ancestor_tag) ->`` number of ``tag``-nodes
            having at least one ``ancestor_tag`` proper ancestor.
        with_descendant: ``(tag, descendant_tag) ->`` number of
            ``tag``-nodes having at least one ``descendant_tag`` proper
            descendant.
        total_nodes: document size.
    """

    tag_counts: dict[str, int] = field(default_factory=dict)
    with_ancestor: dict[tuple[str, str], int] = field(default_factory=dict)
    with_descendant: dict[tuple[str, str], int] = field(default_factory=dict)
    total_nodes: int = 0

    @classmethod
    def collect(cls, document: Document) -> "DocumentStatistics":
        """Gather the statistics in one ancestor-walk over the document."""
        stats = cls(total_nodes=len(document))
        __, __, __, parent, tag_id, tags = document.columns
        seen_desc: set[tuple[int, str]] = set()
        for i, t in enumerate(tag_id):
            tag = tags[t]
            stats.tag_counts[tag] = stats.tag_counts.get(tag, 0) + 1
            ancestor_tags: set[str] = set()
            ancestor = parent[i]
            while ancestor >= 0:
                ancestor_tag = tags[tag_id[ancestor]]
                ancestor_tags.add(ancestor_tag)
                key = (ancestor, tag)
                if key not in seen_desc:
                    seen_desc.add(key)
                    pair = (ancestor_tag, tag)
                    stats.with_descendant[pair] = (
                        stats.with_descendant.get(pair, 0) + 1
                    )
                ancestor = parent[ancestor]
            for ancestor_tag in ancestor_tags:
                pair = (tag, ancestor_tag)
                stats.with_ancestor[pair] = (
                    stats.with_ancestor.get(pair, 0) + 1
                )
        return stats

    # -- probabilities ---------------------------------------------------------

    def count(self, tag: str) -> int:
        return self.tag_counts.get(tag, 0)

    def p_has_ancestor(self, tag: str, ancestor_tag: str) -> float:
        total = self.count(tag)
        if total == 0:
            return 0.0
        return self.with_ancestor.get((tag, ancestor_tag), 0) / total

    def p_has_descendant(self, tag: str, descendant_tag: str) -> float:
        total = self.count(tag)
        if total == 0:
            return 0.0
        return self.with_descendant.get((tag, descendant_tag), 0) / total

    def list_size(self, view: Pattern, tag: str) -> float:
        """Estimated ``|L_tag|`` of ``view``'s materialization.

        A node survives into the view's solution lists iff it has
        matching partners along every view edge above and below it; the
        factors are combined under independence.
        """
        qnode = view.node(tag)
        estimate = float(self.count(tag))
        ancestor = qnode.parent
        while ancestor is not None:
            estimate *= self.p_has_ancestor(tag, ancestor.tag)
            ancestor = ancestor.parent
        for below in qnode.iter_subtree():
            if below is not qnode:
                estimate *= self.p_has_descendant(tag, below.tag)
        return estimate


def catalog_list_sizes(catalog) -> dict[str, dict[str, int]]:
    """Measured ``|L_q|`` per view xpath, harvested from a catalog.

    Every non-derived materialized view that exposes per-tag entry
    counts (the element and linked-element schemes) contributes; the
    counts are the pattern's solution-list sizes whatever the scheme, so
    one scheme per pattern is read.  Derived result views are skipped —
    their content is a query result, not the pattern's solution lists,
    so their counts would mis-calibrate the model — and so are views
    held only in the tuple scheme, which has no per-tag lists.
    """
    measured: dict[str, dict[str, int]] = {}
    for info in catalog.views():
        if info.derived:
            continue
        counts = getattr(info.view, "entry_counts", None)
        if counts is None:
            continue
        xpath = info.pattern.to_xpath()
        if xpath not in measured:
            measured[xpath] = counts()
    return measured


class CalibratedStatistics:
    """Measured-first list sizes over a fallback source.

    Answers exactly for every pattern whose materialized cardinalities
    were observed (from a catalog, or from a recorded workload log) and
    asks ``fallback`` — a :class:`DocumentStatistics` or an
    :class:`ExactSizes` — only for patterns that never were.
    """

    def __init__(
        self,
        fallback,
        measured: Mapping[str, Mapping[str, int]] | None = None,
    ) -> None:
        self.fallback = fallback
        self._measured: dict[str, dict[str, int]] = {
            xpath: dict(sizes) for xpath, sizes in (measured or {}).items()
        }

    @classmethod
    def from_catalog(cls, catalog, fallback) -> "CalibratedStatistics":
        """Calibrate from the list sizes a catalog's views store."""
        return cls(fallback, catalog_list_sizes(catalog))

    @classmethod
    def from_log(cls, fallback, log) -> "CalibratedStatistics":
        """Calibrate from the cardinalities a recorded
        :class:`~repro.selection.online.WorkloadLog` carries."""
        return cls(fallback, log.view_cardinalities)

    def list_size(self, view: Pattern, tag: str) -> float:
        sizes = self._measured.get(view.to_xpath())
        if sizes is not None and tag in sizes:
            return float(sizes[tag])
        return self.fallback.list_size(view, tag)
