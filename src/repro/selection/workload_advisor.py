"""View recommendation: which views are worth materializing?

Section V selects among *given* materialized views.  The complementary
question a deployment faces first — which views to materialize at all —
is answered here with the same cost model, for a *workload* under a
space budget (the direction of the multi-view selection work the paper
cites as [25]); a single query is a workload of one, and the online
controller (:func:`repro.selection.online.plan_adoption`) is this
advisor over a demand-weighted log.  Three stages, each written once:

1. **enumerate** — candidates are the connected subpatterns of every
   workload query up to a size bound (every one is a valid view whose
   joins ViewJoin can reuse), deduplicated structurally — the same
   ``//b//c`` may serve many queries;
2. **score** — a candidate's benefit is the *sum of savings* over all
   queries it is a subpattern of: serving its tags from base
   (single-tag) views costs ``sum |L_t| * e_t`` with full tag counts and
   no precomputed joins, while the candidate costs ``c(v, Q)``
   (:func:`~repro.selection.cost.view_cost`) on its smaller lists;
3. **select** — a greedy knapsack picks candidates by benefit density
   (benefit / estimated bytes) under the space budget, keeping
   per-query usability tag-disjoint (a query uses a view only if it
   shares no tag with a view already assigned to that query).  With
   ``specialize`` the greedy may instead *displace* assigned views on a
   query when the cost model says serving the union of their tags from
   the candidate is cheaper — how the online advisor lets a
   measured-hot query earn its own exact view instead of staying stuck
   with the small shared view that arrived first.

List sizes come from the *sizes* source the caller passes
(:mod:`repro.selection.estimates`): one pass of document statistics
advises without materializing anything, calibrated statistics price
every ever-materialized view exactly.  Per-query assignments come back
with the result, ready to feed :class:`repro.planner.Planner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.selection.cost import view_cost
from repro.storage.records import element_codec
from repro.tpq.containment import is_subpattern
from repro.tpq.pattern import Axis, Pattern, PatternNode


def enumerate_connected_subpatterns(
    query: Pattern, min_size: int = 2, max_size: int = 5
) -> list[Pattern]:
    """All connected subpatterns of ``query`` within the size bounds.

    A connected subpattern is a connected subtree of the query that keeps
    the query's own edges/axes (Section II) — exactly the views whose
    joins are fully reusable by ViewJoin segments.
    """
    results: list[Pattern] = []

    def grow(root: PatternNode, chosen: set[str], frontier: list[PatternNode]):
        if min_size <= len(chosen) <= max_size:
            results.append(_project(root, chosen))
        if len(chosen) >= max_size or not frontier:
            return
        # Branch on the first frontier node: include it (expanding the
        # frontier with its children) or exclude it permanently.
        head, *rest = frontier
        grow(root, chosen | {head.tag}, rest + list(head.children))
        grow(root, chosen, rest)

    for qnode in query.nodes:
        grow(qnode, {qnode.tag}, list(qnode.children))
    # Deduplicate structurally (different grow orders reach the same set).
    unique: dict[str, Pattern] = {}
    for pattern in results:
        unique.setdefault(pattern.to_xpath(), pattern)
    return list(unique.values())


def _project(root: PatternNode, chosen: set[str]) -> Pattern:
    def clone(qnode: PatternNode) -> PatternNode:
        # A standalone view anchors its root with the descendant axis
        # (//root...), whatever the root's incoming axis was in the query.
        axis = Axis.DESCENDANT if qnode is root else qnode.axis
        copy = PatternNode(qnode.tag, axis)
        for child in qnode.children:
            if child.tag in chosen:
                copy.add_child(clone(child))
        return copy

    return Pattern(clone(root))


def base_plan_cost(sizes, query: Pattern, tags: set[str]) -> float:
    """Cost of serving ``tags`` from base views: full tag counts (the
    list size of the single-tag view), every incident edge evaluated at
    query time."""
    total = 0.0
    for tag in tags:
        qnode = query.node(tag)
        degree = len(qnode.children) + (0 if qnode.parent is None else 1)
        count = sizes.list_size(Pattern(PatternNode(tag)), tag)
        total += count * max(degree, 1)
    return total


@dataclass
class WorkloadCandidate:
    """A candidate view scored against the whole workload."""

    view: Pattern
    per_query_saving: dict[str, float]
    estimated_bytes: float

    @property
    def total_saving(self) -> float:
        return sum(self.per_query_saving.values())

    @property
    def density(self) -> float:
        return self.total_saving / max(self.estimated_bytes, 1.0)


@dataclass
class WorkloadAdvice:
    """Chosen views, their per-query assignments and bookkeeping."""

    chosen: list[WorkloadCandidate]
    assignments: dict[str, list[Pattern]]
    budget_bytes: float
    used_bytes: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def views(self) -> list[Pattern]:
        return [candidate.view for candidate in self.chosen]


def estimate_view_bytes(sizes, view: Pattern) -> float:
    """Rough LE-footprint estimate: label + two pointers + child slots.

    With a measured-first source the per-tag list sizes are exact, so
    this becomes near-exact for any view that was ever materialized.
    """
    width = element_codec().width
    total = 0.0
    for vnode in view.nodes:
        per_record = width + 4 * (2 + len(vnode.children))
        total += per_record * sizes.list_size(view, vnode.tag)
    return total


def recommend_for_workload(
    queries: list[Pattern],
    sizes,
    budget_bytes: float = float("inf"),
    max_view_size: int = 4,
    weights: dict[str, float] | None = None,
    known_bytes: dict[str, float] | None = None,
    exclude: set[str] | None = None,
    specialize: bool = False,
) -> WorkloadAdvice:
    """Pick a shared view set for ``queries`` within ``budget_bytes``.

    Args:
        queries: workload queries (each named, else keyed by xpath); a
            single query is a workload of one.
        sizes: the ``|L_q|`` source (``list_size(view, tag) -> float``)
            — document statistics, ideally calibrated.
        budget_bytes: storage budget for the chosen views.
        max_view_size: largest candidate view size in nodes (paper's
            views have <= 5 nodes; larger views reuse more but
            generalize to fewer queries).
        weights: per-query demand multipliers keyed like the query
            (name, else xpath); a query absent from the map weighs 1.
            This is how the online advisor turns observed frequency into
            benefit: a view saving 100 units for a query seen 40 times
            beats one saving 500 for a query seen once.
        known_bytes: measured storage per candidate xpath, overriding
            the byte estimate (already-materialized views are costed at
            their true footprint).
        exclude: candidate xpaths to drop from the pool (views the
            caller already has and manages outside this advice).
        specialize: allow a candidate to displace views already
            assigned to a query when the cost model says the candidate
            serves the union of their tags cheaper (views displaced
            from every query refund their storage).  Off by default:
            the offline advisor prefers the storage-lean shared set;
            the online advisor enables it so sustained hot queries can
            earn their own exact views.

    Returns:
        The advice with chosen candidates (benefit-density order) and a
        tag-disjoint per-query view assignment.
    """
    weights = weights or {}
    known_bytes = known_bytes or {}
    exclude = exclude or set()

    def key_of(query: Pattern) -> str:
        return query.name or query.to_xpath()

    # 1. structurally-deduplicated candidate pool across all queries
    pool: dict[str, Pattern] = {}
    for query in queries:
        for view in enumerate_connected_subpatterns(
            query, min_size=2, max_size=max_view_size
        ):
            xpath = view.to_xpath()
            if xpath in exclude:
                continue
            pool.setdefault(xpath, view)

    # 2. per-query savings for each candidate, scaled by demand weight
    candidates: list[WorkloadCandidate] = []
    for view in pool.values():
        savings: dict[str, float] = {}
        for query in queries:
            if not is_subpattern(view, query):
                continue
            saving = base_plan_cost(
                sizes, query, view.tag_set()
            ) - view_cost(view, query, sizes).floored
            saving *= weights.get(key_of(query), 1.0)
            if saving > 0:
                savings[key_of(query)] = saving
        if savings:
            xpath = view.to_xpath()
            candidates.append(
                WorkloadCandidate(
                    view=view,
                    per_query_saving=savings,
                    estimated_bytes=known_bytes.get(
                        xpath, estimate_view_bytes(sizes, view)
                    ),
                )
            )
    candidates.sort(key=lambda c: (-c.density, c.view.to_xpath()))

    # 3. greedy knapsack with tag-disjoint per-query assignment; with
    # ``specialize`` an assignment may also *replace* views the
    # candidate overlaps when the model prices the candidate cheaper
    # for the union of their tags.
    chosen_map: dict[str, WorkloadCandidate] = {}
    use_count: dict[str, int] = {}
    assignments: dict[str, list[Pattern]] = {
        key_of(query): [] for query in queries
    }
    query_by_key = {key_of(query): query for query in queries}
    used = 0.0
    notes: list[str] = []
    for candidate in candidates:
        xpath = candidate.view.to_xpath()
        ctags = candidate.view.tag_set()
        if used + candidate.estimated_bytes > budget_bytes:
            notes.append(f"skipped {xpath}: over budget")
            continue
        # (query, views the candidate would displace there)
        plans: list[tuple[str, list[Pattern]]] = []
        for name in candidate.per_query_saving:
            query = query_by_key[name]
            displaced = [
                view for view in assignments[name]
                if view.tag_set() & ctags
            ]
            if displaced:
                if not specialize:
                    continue
                covered: set[str] = set()
                for view in displaced:
                    covered |= view.tag_set()
                old_cost = sum(
                    view_cost(view, query, sizes).floored
                    for view in displaced
                ) + base_plan_cost(sizes, query, ctags - covered)
                new_cost = view_cost(
                    candidate.view, query, sizes
                ).floored + base_plan_cost(sizes, query, covered - ctags)
                if new_cost >= old_cost:
                    continue
            plans.append((name, displaced))
        if not plans:
            continue
        chosen_map[xpath] = candidate
        use_count[xpath] = 0
        used += candidate.estimated_bytes
        for name, displaced in plans:
            for view in displaced:
                assignments[name].remove(view)
                dxpath = view.to_xpath()
                use_count[dxpath] -= 1
                if use_count[dxpath] == 0:
                    # Displaced from every query: refund its storage.
                    used -= chosen_map.pop(dxpath).estimated_bytes
                    del use_count[dxpath]
            assignments[name].append(candidate.view)
            use_count[xpath] += 1
    return WorkloadAdvice(
        chosen=list(chosen_map.values()),
        assignments=assignments,
        budget_bytes=budget_bytes,
        used_bytes=used,
        notes=notes,
    )
