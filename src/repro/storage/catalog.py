"""View materialization and the view catalog.

:func:`materialize` evaluates a view pattern over a document and stores the
result in any of the four schemes; :class:`ViewCatalog` keeps a collection
of materialized views for one document, sharing a pager, and answers the
size/pointer statistics the paper reports in Table IV.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Union

from repro.errors import StorageError
from repro.storage.element import ElementView
from repro.storage.linked import LinkedElementView
from repro.storage.pager import Pager
from repro.storage.tuples import TupleView
from repro.tpq.enumeration import enumerate_matches
from repro.tpq.matching import solution_indexes
from repro.tpq.pattern import Pattern
from repro.xmltree.document import Document

AnyView = Union[ElementView, TupleView, LinkedElementView]


class Scheme(enum.Enum):
    """The four view storage schemes of paper Table I."""

    TUPLE = "T"
    ELEMENT = "E"
    LINKED = "LE"
    LINKED_PARTIAL = "LEp"

    @classmethod
    def parse(cls, value: "Scheme | str") -> "Scheme":
        if isinstance(value, Scheme):
            return value
        normalized = value.strip().lower().replace("_", "").replace("-", "")
        aliases = {
            "t": cls.TUPLE, "tuple": cls.TUPLE,
            "e": cls.ELEMENT, "element": cls.ELEMENT,
            "le": cls.LINKED, "linked": cls.LINKED,
            "linkedelement": cls.LINKED,
            "lep": cls.LINKED_PARTIAL, "partial": cls.LINKED_PARTIAL,
            "linkedpartial": cls.LINKED_PARTIAL,
        }
        try:
            return aliases[normalized]
        except KeyError:
            raise StorageError(f"unknown storage scheme {value!r}") from None


def materialize(
    document: Document,
    pattern: Pattern,
    scheme: Scheme | str,
    pager: Pager | None = None,
    partial_distance: int = 1,
) -> AnyView:
    """Materialize ``pattern`` over ``document`` in the given ``scheme``.

    Args:
        document: the data tree.
        pattern: the view pattern.
        scheme: one of :class:`Scheme` (or its string alias).
        pager: storage target; a fresh in-memory pager is created if omitted.
        partial_distance: LE_p materialization threshold (Section III-C
            uses 1: materialize only pointers that skip more than one entry).

    Returns:
        The materialized view object for the scheme.
    """
    scheme = Scheme.parse(scheme)
    if pager is None:
        pager = Pager()
    # The solution lists stay views over the document's columns: the
    # element and linked builders read them column-wise.
    lists = {
        tag: document.nodes_at(rows)
        for tag, rows in solution_indexes(document, pattern).items()
    }
    if scheme is Scheme.TUPLE:
        matches = enumerate_matches(
            pattern, {tag: list(nodes) for tag, nodes in lists.items()}
        )
        return TupleView(pattern, pager, matches)
    if scheme is Scheme.ELEMENT:
        return ElementView(pattern, pager, lists)
    return LinkedElementView(
        pattern,
        pager,
        lists,
        partial=(scheme is Scheme.LINKED_PARTIAL),
        partial_distance=partial_distance,
    )


@dataclass
class ViewInfo:
    """Catalog row: a materialized view plus its statistics.

    ``derived`` marks result views (:meth:`ViewCatalog.add_result_view`):
    their content is a query *result*, not the pattern's solution sets,
    so incremental maintenance may label-shift them but must never
    rebuild them via :func:`materialize` — a structurally invalidating
    delta drops them instead.
    """

    pattern: Pattern
    scheme: Scheme
    view: AnyView
    derived: bool = False

    @property
    def size_bytes(self) -> int:
        return self.view.size_bytes

    @property
    def num_pages(self) -> int:
        return self.view.num_pages

    @property
    def num_pointers(self) -> int:
        if isinstance(self.view, LinkedElementView):
            return self.view.pointer_stats.total
        return 0


class ViewCatalog:
    """Materialized views over one document, sharing a pager.

    The catalog is keyed by ``(view name or xpath, scheme)`` so the same
    pattern can coexist in several schemes — exactly what the comparative
    experiments need.
    """

    def __init__(
        self,
        document: Document,
        pager: Pager | None = None,
        partial_distance: int = 1,
    ):
        self.document = document
        self.pager = pager if pager is not None else Pager()
        self.partial_distance = partial_distance
        self._views: dict[tuple[str, Scheme], ViewInfo] = {}
        #: Count of actual materializations performed through this catalog
        #: (idempotent re-adds do not count).  The query service uses it to
        #: assert that warm-up really covered every view a timed region
        #: needs, and as a cheap change marker for snapshot invalidation.
        self.materializations = 0
        #: Monotone change marker: bumped whenever the set of stored views
        #: grows (materialization or persistence attach) or a maintenance
        #: commit replaces document/view state.
        self.version = 0
        #: Monotone maintenance marker: bumped only by
        #: :meth:`install_maintained`.  Planners key their document-derived
        #: state (DataGuide, plan cache) off this instead of ``version``
        #: so ordinary warm-up materializations do not thrash plan caches.
        self.maintenance_epoch = 0
        #: Version of the on-disk store this catalog was attached from
        #: (``manifest.json``'s ``store_version``); 0 for in-memory
        #: catalogs.  Workers compare it against the manifest on disk to
        #: detect stores rewritten underneath a live attachment.
        self.store_version = 0
        #: MVCC generation this catalog answers for (DESIGN.md §16).
        #: Store-attached catalogs carry the manifest's generation number
        #: (== ``store_version``); in-memory catalogs count maintenance
        #: commits from 0.  Bumped by :meth:`install_maintained` and set
        #: by ``load_catalog``/``commit_store``.  Snapshot catalogs from
        #: :meth:`pin_snapshot` keep the pre-commit value forever.
        self.generation = 0
        #: The delta records of the last maintenance commit (planners
        #: derive their DataGuide from them); empty before the first.
        self.last_changes: tuple = ()
        self._borrowed_pager = False

    @staticmethod
    def _key_name(pattern: Pattern) -> str:
        return pattern.name or pattern.to_xpath()

    def add(self, pattern: Pattern, scheme: Scheme | str) -> ViewInfo:
        """Materialize and register ``pattern`` under ``scheme``.

        Re-registering an existing (pattern, scheme) pair returns the
        already-materialized view.
        """
        scheme = Scheme.parse(scheme)
        key = (self._key_name(pattern), scheme)
        existing = self._views.get(key)
        if existing is not None:
            return existing
        view = materialize(
            self.document,
            pattern,
            scheme,
            pager=self.pager,
            partial_distance=self.partial_distance,
        )
        info = ViewInfo(pattern, scheme, view)
        self._views[key] = info
        self.materializations += 1
        self.version += 1
        return info

    def add_all(
        self, patterns: Iterable[Pattern], scheme: Scheme | str
    ) -> list[ViewInfo]:
        return [self.add(pattern, scheme) for pattern in patterns]

    def add_result_view(
        self, query: Pattern, matches, scheme: Scheme | str
    ) -> ViewInfo:
        """Register an already-evaluated query result as a view.

        Implements the paper's Section IV-B feature 2: ViewJoin's
        intermediate DAG is the linked-element structure, so query results
        can be stored as materialized views and reused by later queries.
        The new view is keyed like any other (by the query's name/xpath).
        """
        from repro.storage.result_views import materialize_from_matches

        scheme = Scheme.parse(scheme)
        key = (self._key_name(query), scheme)
        existing = self._views.get(key)
        if existing is not None:
            return existing
        view = materialize_from_matches(
            self.document,
            query,
            matches,
            scheme,
            pager=self.pager,
            partial_distance=self.partial_distance,
        )
        info = ViewInfo(query, scheme, view, derived=True)
        self._views[key] = info
        self.materializations += 1
        self.version += 1
        return info

    def get(self, pattern: Pattern, scheme: Scheme | str) -> AnyView:
        scheme = Scheme.parse(scheme)
        key = (self._key_name(pattern), scheme)
        try:
            return self._views[key].view
        except KeyError:
            raise StorageError(
                f"view {key[0]!r} not materialized in scheme {scheme.value}"
            ) from None

    def views(self) -> list[ViewInfo]:
        return list(self._views.values())

    def entries(self) -> list[tuple[tuple[str, Scheme], ViewInfo]]:
        """Catalog rows with their ``(name, scheme)`` keys, in insertion
        order (read-only snapshot; maintenance iterates this)."""
        return list(self._views.items())

    def view_names(self) -> set[str]:
        """Names (or xpaths) of the currently stored views, any scheme."""
        return {name for name, __ in self._views}

    def remove_view(self, name: str) -> bool:
        """Drop every scheme of the view called ``name`` (quarantine
        path).  Bumps ``version`` so snapshots and attached workers
        invalidate, and clears buffer-pool residency so decoded pages of
        the dropped view cannot serve later reads.  Returns True when
        anything was removed.
        """
        doomed = [key for key in self._views if key[0] == name]
        for key in doomed:
            del self._views[key]
        if doomed:
            self.version += 1
            self.pager.pool.clear()
        return bool(doomed)

    def install_maintained(
        self,
        document: Document,
        views: dict[tuple[str, Scheme], ViewInfo],
        changes: Iterable,
    ) -> None:
        """Atomically swap in a post-maintenance document and view set.

        Only the maintenance engine calls this: the new views must
        already be materialized against ``document`` on this catalog's
        pager, and ``changes`` are the ``AppliedDelta`` records that led
        to it.  Bumps both change markers (so snapshots, workers and
        plan caches all invalidate) and drops buffer-pool residency —
        decoded pages cached from replaced views must not serve reads.
        """
        self.document = document
        self._views = dict(views)
        self.last_changes = tuple(changes)
        self.version += 1
        self.maintenance_epoch += 1
        self.generation += 1
        self.pager.pool.clear()

    def pin_snapshot(self) -> "ViewCatalog":
        """A frozen read-only alias of this catalog's *current* state.

        Taken immediately before a maintenance commit, the snapshot
        keeps answering for the outgoing generation: it shares the
        pager (repairs are copy-on-write, so the old pages are never
        patched) but holds its own references to the pre-commit
        document and view rows, which :meth:`install_maintained` on the
        live catalog can no longer disturb.  The snapshot's ``close``
        does not close the shared pager; queries may still materialize
        missing scheme variants through it (fresh pages, invisible to
        every manifest).
        """
        snapshot = ViewCatalog(
            self.document,
            pager=self.pager,
            partial_distance=self.partial_distance,
        )
        snapshot._views = dict(self._views)
        snapshot.materializations = self.materializations
        snapshot.version = self.version
        snapshot.maintenance_epoch = self.maintenance_epoch
        snapshot.store_version = self.store_version
        snapshot.generation = self.generation
        snapshot._borrowed_pager = True
        return snapshot

    def space_report(self) -> list[dict[str, object]]:
        """Per-view size/pointer rows (the shape of paper Table IV)."""
        rows = []
        for (name, scheme), info in self._views.items():
            rows.append(
                {
                    "view": name,
                    "scheme": scheme.value,
                    "bytes": info.size_bytes,
                    "pages": info.num_pages,
                    "pointers": info.num_pointers,
                }
            )
        return rows

    def close(self) -> None:
        if not self._borrowed_pager:
            self.pager.close()

    def __enter__(self) -> "ViewCatalog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
