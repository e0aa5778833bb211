"""End-to-end query planning over a view catalog.

The paper's components assume the caller hands the engine a covering view
set.  A downstream user wants the database experience instead: *register
whatever views you have, then just ask queries*.  :class:`Planner` closes
the loop:

1. candidate discovery — every registered view that is a subpattern of the
   query (Section II containment) is usable;
2. cover construction — the Section V greedy heuristic picks a minimal
   covering subset by cost, on the list sizes the catalog's materialized
   views already store (an exact document pass only for a view held in
   no scheme with per-tag lists);
3. base-view fallback — query nodes no view covers are served by implicit
   single-tag *base views* (the raw per-type element lists every
   structural-join algorithm assumes), materialized on demand;
4. dispatch — ViewJoin by default; InterJoin/TwigStack/PathStack on
   request, with the Table I combination rules enforced.

Answering with only base views degenerates to classic TwigStack/ViewJoin
over raw element streams — the "no views" baseline the InterJoin paper
compared against, reproduced in ``benchmarks/test_views_vs_no_views.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.algorithms.base import EvalResult, Mode
from repro.algorithms.engine import Algorithm, evaluate
from repro.caching import CacheStats, LRUCache
from repro.errors import SelectionError
from repro.selection.estimates import CalibratedStatistics, ExactSizes
from repro.selection.greedy import select_views
from repro.storage.catalog import Scheme, ViewCatalog
from repro.tpq.containment import is_subpattern
from repro.tpq.parser import parse_pattern
from repro.tpq.pattern import Pattern, PatternNode


@dataclass
class Plan:
    """A chosen evaluation strategy for one query."""

    query: Pattern
    views: list[Pattern]
    base_views: list[Pattern]
    algorithm: Algorithm
    scheme: Scheme
    explanation: list[str] = field(default_factory=list)
    #: The DataGuide proves the query matches nothing (decided once,
    #: when the plan is built: plans never outlive a maintenance epoch).
    refuted: bool = False

    @property
    def all_views(self) -> list[Pattern]:
        return self.views + self.base_views

    def describe(self) -> str:
        lines = [f"query: {self.query.to_xpath()}"]
        lines += [f"  view: {view.to_xpath()}" for view in self.views]
        lines += [
            f"  base view (fallback): {view.to_xpath()}"
            for view in self.base_views
        ]
        lines.append(
            f"  engine: {self.algorithm.value}+{self.scheme.value}"
        )
        lines.extend(f"  note: {note}" for note in self.explanation)
        return "\n".join(lines)


class Planner:
    """Answers TPQs from a catalog of registered view patterns.

    Args:
        catalog: the view catalog over the target document.
        scheme: storage scheme used for newly materialized views.
        algorithm: default evaluation algorithm.
    """

    def __init__(
        self,
        catalog: ViewCatalog,
        scheme: Scheme | str = Scheme.LINKED_PARTIAL,
        algorithm: Algorithm | str = Algorithm.VIEWJOIN,
        plan_cache_size: int = 128,
    ):
        self.catalog = catalog
        self.scheme = Scheme.parse(scheme)
        self.algorithm = Algorithm.parse(algorithm)
        self._registered: list[Pattern] = []
        self._dataguide = None
        # parse → containment → greedy cover → Plan is a pure function of
        # (canonical query text, registered view set), so plans memoize
        # per catalog generation: any registration bumps the generation
        # and drops the cache.
        self._plan_cache = LRUCache(plan_cache_size)
        self._generation = 0
        self._maintenance_epoch = catalog.maintenance_epoch
        self._quarantined: set[str] = set()

    def _guide(self):
        if self._dataguide is None:
            from repro.xmltree.dataguide import DataGuide

            self._dataguide = DataGuide(self.catalog.document)
        return self._dataguide

    def sync_catalog(self) -> bool:
        """Re-sync with the catalog after a maintenance commit.

        Ordinary ``version`` bumps (warm-up materializations) never
        invalidate plans — the view *set* the planner registered is what
        plans depend on.  A maintenance commit is different: the document
        changed, views may have been dropped, and every memoized plan
        (with its refutation) may reference dead state.  The DataGuide
        of the one commit just made is derived from its deltas; after
        any other gap it is dropped and rebuilt on demand.  Keyed off
        ``catalog.maintenance_epoch``; called lazily from :meth:`plan` /
        :meth:`register` so external committers (e.g. another handle to
        the same catalog) are picked up too.  Returns True when a
        re-sync happened.
        """
        epoch = self.catalog.maintenance_epoch
        if epoch == self._maintenance_epoch:
            return False
        guide = self._dataguide
        follows = epoch == self._maintenance_epoch + 1
        self._maintenance_epoch = epoch
        self._dataguide = (
            guide.derived(self.catalog.last_changes)
            if guide is not None and follows else None
        )
        surviving = self.catalog.view_names()
        self._registered = [
            view for view in self._registered
            if (view.name or view.to_xpath()) in surviving
        ]
        self._bump_generation()
        return True

    # -- registration ----------------------------------------------------------

    def register(self, pattern: Pattern | str, name: str | None = None) -> Pattern:
        """Register (and materialize) a view pattern.

        Registration changes what future plans may use, so it bumps the
        catalog generation and invalidates the plan cache.
        """
        self.sync_catalog()
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern, name=name)
        self.catalog.add(pattern, self.scheme)
        self._registered.append(pattern)
        self._bump_generation()
        return pattern

    def adopt_catalog_views(self) -> int:
        """Register every view already present in the catalog (e.g. after
        :func:`repro.storage.persistence.load_catalog`); returns how many."""
        adopted = 0
        known = {view.to_xpath() for view in self._registered}
        for info in self.catalog.views():
            if info.pattern.to_xpath() in known:
                continue
            self._registered.append(info.pattern)
            known.add(info.pattern.to_xpath())
            adopted += 1
        if adopted:
            self._bump_generation()
        return adopted

    def deregister(self, name: str) -> bool:
        """Remove one registered view by name (else canonical xpath).

        :meth:`repro.service.QueryService.drop`'s planner half: the
        pattern leaves the candidate set for every future plan and any
        quarantine entry is cleared (a rematerialized successor starts
        with a clean record).
        Bumps the generation so memoized plans that used the view are
        dropped.  Returns True when a registration was actually removed.
        """
        survivors = [
            view for view in self._registered
            if (view.name or view.to_xpath()) != name
        ]
        if len(survivors) == len(self._registered):
            return False
        self._registered = survivors
        self._quarantined.discard(name)
        self._bump_generation()
        return True

    def quarantine(self, names: Iterable[str]) -> int:
        """Exclude the named views from every future plan.

        The circuit-breaker hook: a quarantined view stays registered
        (the pattern may be rematerialized later) but no plan will read
        its pages — queries transparently re-plan over surviving views
        or base views.  Bumps the generation so memoized plans that
        referenced the view are dropped.  Returns how many names were
        newly quarantined.
        """
        added = {
            name for name in names
            if name not in self._quarantined
        }
        if added:
            self._quarantined |= added
            self._bump_generation()
        return len(added)

    @property
    def quarantined(self) -> tuple[str, ...]:
        return tuple(sorted(self._quarantined))

    def _bump_generation(self) -> None:
        self._generation += 1
        self._plan_cache.invalidate()

    def clone_for_snapshot(self, catalog: ViewCatalog) -> "Planner":  # repro-lint: disable=RL204 (frozen snapshot clone: the generation is copied, not advanced — pinned readers must keep their pre-commit cache keys)
        """A planner frozen over a pinned snapshot catalog (MVCC,
        DESIGN.md §16).

        Taken *before* a maintenance commit, alongside
        :meth:`~repro.storage.catalog.ViewCatalog.pin_snapshot`: the
        clone carries this planner's current registered/quarantined view
        sets and generation, but plans against the snapshot catalog —
        it shares this planner's (pre-commit, never mutated) DataGuide,
        and because the snapshot's ``maintenance_epoch`` never
        moves again, :meth:`sync_catalog` on the clone is a permanent
        no-op.  Plan caches stay per-planner, so a pinned reader's plan
        hits survive however many commits land on the live planner.
        """
        clone = Planner(
            catalog,
            scheme=self.scheme,
            algorithm=self.algorithm,
            plan_cache_size=max(self._plan_cache.capacity, 8),
        )
        if self._maintenance_epoch == catalog.maintenance_epoch:
            clone._dataguide = self._dataguide
        clone._registered = list(self._registered)
        clone._quarantined = set(self._quarantined)
        clone._generation = self._generation
        clone._maintenance_epoch = catalog.maintenance_epoch
        return clone

    @property
    def generation(self) -> int:
        """Monotone counter of view-set changes (plan-cache epochs)."""
        return self._generation

    @property
    def plan_cache_stats(self) -> CacheStats:
        return self._plan_cache.stats

    @property
    def registered(self) -> list[Pattern]:
        return list(self._registered)

    # -- planning -----------------------------------------------------------------

    def plan(self, query: Pattern | str) -> Plan:
        """Build an evaluation plan for ``query`` (memoized).

        Greedily covers as many query nodes as possible with registered
        views (tag-disjointly), then fills the gaps with base views.
        Plans are cached by canonical pattern text until the next
        registration; the caller always receives a private copy, so
        mutating ``explanation`` (as :meth:`answer` does) never corrupts
        the cached entry.  ``refuted`` is decided here, on a miss, by
        embedding the query into the DataGuide: a cache hit never
        touches the guide.
        """
        self.sync_catalog()
        if isinstance(query, str):
            query = parse_pattern(query)
        key = query.to_xpath()
        cached = self._plan_cache.get(key)
        if cached is not None:
            return self._copy_plan(cached)
        plan = self._build_plan(query)
        plan.refuted = not self._guide().may_match(query)
        self._plan_cache.put(key, plan)
        return self._copy_plan(plan)

    @staticmethod
    def _copy_plan(plan: Plan) -> Plan:
        return Plan(
            plan.query, list(plan.views), list(plan.base_views),
            plan.algorithm, plan.scheme, list(plan.explanation),
            plan.refuted,
        )

    def _build_plan(self, query: Pattern) -> Plan:
        explanation: list[str] = []
        candidates = self._registered
        if self._quarantined:
            candidates = [
                view for view in candidates
                if (view.name or view.to_xpath()) not in self._quarantined
            ]
            dropped = len(self._registered) - len(candidates)
            if dropped:
                explanation.append(
                    f"{dropped} view(s) quarantined by the circuit breaker"
                    " and excluded"
                )
        usable = [
            view for view in candidates if is_subpattern(view, query)
        ]
        skipped = len(candidates) - len(usable)
        if skipped:
            explanation.append(
                f"{skipped} registered view(s) are not subpatterns of the"
                " query and were skipped"
            )

        chosen: list[Pattern] = []
        if usable:
            sizes = CalibratedStatistics.from_catalog(
                self.catalog, ExactSizes(self.catalog.document)
            )
            selection = select_views(usable, query, sizes, lam=1.0)
            chosen = self._drop_overlaps(selection.selected, explanation)

        covered = {
            tag for view in chosen for tag in view.tag_set()
            if query.has_tag(tag)
        }
        base_views = [
            self._base_view(qnode)
            for qnode in query.nodes
            if qnode.tag not in covered
        ]
        if base_views:
            explanation.append(
                f"{len(base_views)} query node(s) fall back to base views"
            )

        algorithm = self.algorithm
        if algorithm is Algorithm.INTERJOIN and not query.is_path():
            algorithm = Algorithm.VIEWJOIN
            explanation.append(
                "InterJoin cannot evaluate twig queries; using ViewJoin"
            )
        return Plan(
            query=query,
            views=chosen,
            base_views=base_views,
            algorithm=algorithm,
            scheme=(
                Scheme.TUPLE
                if algorithm is Algorithm.INTERJOIN
                else self.scheme
            ),
            explanation=explanation,
        )

    @staticmethod
    def _drop_overlaps(
        selected: list[Pattern], explanation: list[str]
    ) -> list[Pattern]:
        """Enforce tag-disjointness across the chosen views (the greedy
        may pick overlapping candidates when benefits tie)."""
        chosen: list[Pattern] = []
        seen: set[str] = set()
        for view in selected:
            if seen & view.tag_set():
                explanation.append(
                    f"dropped {view.to_xpath()}: overlaps an earlier choice"
                )
                continue
            chosen.append(view)
            seen |= view.tag_set()
        return chosen

    def _base_view(self, qnode: PatternNode) -> Pattern:
        return Pattern(PatternNode(qnode.tag), name=f"base:{qnode.tag}")

    # -- execution -------------------------------------------------------------------

    def answer(
        self,
        query: Pattern | str,
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
    ) -> tuple[Plan, EvalResult]:
        """Plan and evaluate ``query``; returns (plan, result).

        Unsatisfiable queries (refuted by the document's DataGuide path
        summary) return an empty result without materializing or reading
        any view.
        """
        plan = self.plan(query)
        if plan.refuted:
            plan.explanation.append(
                "DataGuide refutation: no document path can match;"
                " evaluation skipped"
            )
            from repro.algorithms.base import Counters

            return plan, EvalResult(match_count=0, counters=Counters())
        if not plan.all_views:
            raise SelectionError("nothing covers the query")
        result = evaluate(
            plan.query,
            self.catalog,
            plan.all_views,
            plan.algorithm,
            plan.scheme,
            mode=mode,
            emit_matches=emit_matches,
        )
        return plan, result
