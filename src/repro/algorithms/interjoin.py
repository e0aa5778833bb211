"""InterJoin (Phillips et al., SSDBM 2006) over tuple-scheme path views.

InterJoin evaluates a **path query** from materialized **path views** stored
in the tuple scheme.  Following the description in the ViewJoin paper
(Sections I and VII), when more than two views are involved the evaluation
proceeds as a sequence of binary structural joins over sorted tuple
streams, each join followed by verification of the query edges that become
checkable once both endpoints are bound (e.g. joining views ``//a//c`` and
``//b`` for query ``//a//b//c``: merge on the a-b relationship, then verify
b is an ancestor of c per combined tuple).

The scheme's data redundancy — the same data node duplicated across many
tuples — directly inflates ``elements_scanned`` and
``intermediate_tuples``, which is the effect the paper's Section VI-A
comparison measures.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from repro.algorithms.base import Counters, EvalResult, Mode
from repro.errors import EvaluationError
from repro.storage.records import ElementEntry
from repro.storage.tuples import TupleView
from repro.tpq.containment import covering_view_set
from repro.tpq.pattern import Axis, Pattern

_PartialTuple = tuple[ElementEntry, ...]


def interjoin(
    query: Pattern,
    views: Sequence[TupleView],
    mode: Mode = Mode.MEMORY,
    emit_matches: bool = True,
) -> EvalResult:
    """Evaluate a path ``query`` from tuple-scheme path ``views``.

    Args:
        query: a path TPQ (InterJoin does not handle twigs).
        views: materialized tuple views forming a covering set of the query.
        mode: only the memory-based approach is defined for InterJoin.
        emit_matches: materialize output tuples (False counts only).

    Raises:
        EvaluationError: for twig queries/views or a disk-mode request.
    """
    if Mode.parse(mode) is not Mode.MEMORY:
        raise EvaluationError(
            "InterJoin defines no disk-based variant (paper Table V covers"
            " TS and VJ only)"
        )
    if not query.is_path():
        raise EvaluationError(
            f"InterJoin handles path queries only; {query.to_xpath()} branches"
        )
    for view in views:
        if not view.pattern.is_path():
            raise EvaluationError(
                f"InterJoin handles path views only; {view.pattern.to_xpath()}"
                " branches"
            )
    covering_view_set([view.pattern for view in views], query)

    run = _InterJoinRun(query, views)
    matches = run.execute()
    counters = run.counters
    counters.matches = len(matches)
    if emit_matches:
        return EvalResult.from_rows(
            matches, counters, peak_buffer_entries=run.peak_tuples
        )
    return EvalResult(
        match_count=len(matches),
        counters=counters,
        peak_buffer_entries=run.peak_tuples,
    )


class _InterJoinRun:
    def __init__(self, query: Pattern, views: Sequence[TupleView]):
        self.query = query
        self.views = views
        self.counters = Counters()
        self.peak_tuples = 0
        self.chain: list[str] = query.tags()
        self.chain_index = {tag: i for i, tag in enumerate(self.chain)}

    def execute(self) -> list[_PartialTuple]:
        ordered = sorted(
            self.views,
            key=lambda view: min(self.chain_index[t] for t in view.tags),
        )
        guaranteed = self._guaranteed_edges(ordered)

        tags, tuples = self._scan_view(ordered[0])
        self._note_peak(tuples)
        verified: set[int] = {
            i for i in guaranteed if self._edge_within(i, tags)
        }
        check = self._newly_checkable(tags, set(), verified)
        tuples = self._verify(tags, tuples, check)
        verified |= {edge[0] for edge in check}
        bound = set(tags)
        for view in ordered[1:]:
            view_tags, view_tuples = self._scan_view(view)
            self._note_peak(view_tuples)
            tags, tuples = self._join(
                tags, tuples, view_tags, view_tuples
            )
            self._note_peak(tuples)
            verified |= {
                i for i in guaranteed if self._edge_within(i, view_tags)
            }
            check = self._newly_checkable(tags, bound, verified)
            tuples = self._verify(tags, tuples, check)
            verified |= {edge[0] for edge in check}
            bound = set(tags)
        return self._finalize(tags, tuples)

    # -- inputs ----------------------------------------------------------------

    def _scan_view(
        self, view: TupleView
    ) -> tuple[list[str], list[_PartialTuple]]:
        """Read a tuple view through its cursor (I/O and scans counted)."""
        tuples: list[_PartialTuple] = []
        cursor = view.cursor()
        while cursor.current is not None:
            tuples.append(cursor.current)
            self.counters.elements_scanned += len(view.tags)
            cursor.advance()
        return list(view.tags), tuples

    def _note_peak(self, tuples: list[_PartialTuple]) -> None:
        if len(tuples) > self.peak_tuples:
            self.peak_tuples = len(tuples)

    # -- edge bookkeeping -----------------------------------------------------------

    def _guaranteed_edges(self, views: Sequence[TupleView]) -> set[int]:
        """Chain edges whose join is precomputed exactly by some view.

        Edge ``i`` connects ``chain[i]`` and ``chain[i+1]``.  A view edge
        between the same pair guarantees it when the view's axis is at
        least as strict as the query's (a pc view edge covers both; an ad
        view edge covers only an ad query edge).
        """
        guaranteed: set[int] = set()
        for view in views:
            for parent, child in view.pattern.edges():
                i = self.chain_index[parent.tag]
                if self.chain_index[child.tag] != i + 1:
                    continue
                query_axis = self.query.node(child.tag).axis
                if child.axis.is_pc or query_axis is Axis.DESCENDANT:
                    guaranteed.add(i)
        return guaranteed

    def _edge_within(self, i: int, tags: Sequence[str]) -> bool:
        return self.chain[i] in tags and self.chain[i + 1] in tags

    def _newly_checkable(
        self, tags: list[str], previously_bound: set[str], verified: set[int]
    ) -> list[tuple[int, int, int]]:
        """Edges with both endpoints bound that still need verification.

        Returns ``(edge_index, parent_slot, child_slot)`` triples.
        """
        slot = {tag: i for i, tag in enumerate(tags)}
        result = []
        for i in range(len(self.chain) - 1):
            if i in verified:
                continue
            ptag, ctag = self.chain[i], self.chain[i + 1]
            if ptag in slot and ctag in slot and not (
                ptag in previously_bound and ctag in previously_bound
            ):
                result.append((i, slot[ptag], slot[ctag]))
        return result

    # -- join -----------------------------------------------------------------------

    def _join(
        self,
        left_tags: list[str],
        left: list[_PartialTuple],
        right_tags: list[str],
        right: list[_PartialTuple],
    ) -> tuple[list[str], list[_PartialTuple]]:
        """Binary stack-based structural merge join on the outermost
        ancestor/descendant pair spanning the two sides."""
        anc_slot, desc_slot, left_is_anc = self._pick_join_pair(
            left_tags, right_tags
        )
        if left_is_anc:
            a_tags, a_tuples, a_slot = left_tags, left, anc_slot
            b_tags, b_tuples, b_slot = right_tags, right, desc_slot
        else:
            a_tags, a_tuples, a_slot = right_tags, right, anc_slot
            b_tags, b_tuples, b_slot = left_tags, left, desc_slot

        # Entries are (start, end, level) tuples with document-unique
        # starts, so keying on the whole entry sorts exactly by start
        # without a per-tuple lambda call.
        a_sorted = sorted(a_tuples, key=itemgetter(a_slot))
        b_sorted = sorted(b_tuples, key=itemgetter(b_slot))
        self.counters.comparisons += len(a_sorted) + len(b_sorted)

        out: list[_PartialTuple] = []
        stack: list[_PartialTuple] = []
        ai = 0
        for bt in b_sorted:
            point = bt[b_slot].start
            while ai < len(a_sorted) and a_sorted[ai][a_slot].start < point:
                at = a_sorted[ai]
                ai += 1
                self.counters.comparisons += 1
                while stack and stack[-1][a_slot].end < at[a_slot].start:
                    stack.pop()
                stack.append(at)
            while stack and stack[-1][a_slot].end < point:
                self.counters.comparisons += 1
                stack.pop()
            for at in stack:
                out.append(at + bt)
        self.counters.intermediate_tuples += len(out)

        if left_is_anc:
            combined_tags = a_tags + b_tags
        else:
            # Keep component order as (left + right) regardless of which
            # side played ancestor.
            out = [
                t[len(a_tags):] + t[:len(a_tags)] for t in out
            ]
            combined_tags = b_tags + a_tags
        return combined_tags, out

    def _pick_join_pair(
        self, left_tags: list[str], right_tags: list[str]
    ) -> tuple[int, int, bool]:
        """Choose the join pair: the last tag of the upper side before the
        other side's first tag, paired with that first tag.

        Returns ``(ancestor_slot, descendant_slot, left_is_ancestor)``.
        """
        first_left = min(self.chain_index[t] for t in left_tags)
        first_right = min(self.chain_index[t] for t in right_tags)
        left_is_anc = first_left < first_right
        upper_tags, lower_tags = (
            (left_tags, right_tags) if left_is_anc else (right_tags, left_tags)
        )
        lower_first = min(self.chain_index[t] for t in lower_tags)
        anc_tag = max(
            (t for t in upper_tags if self.chain_index[t] < lower_first),
            key=lambda t: self.chain_index[t],
        )
        desc_tag = self.chain[lower_first]
        return (
            upper_tags.index(anc_tag),
            lower_tags.index(desc_tag),
            left_is_anc,
        )

    # -- verification ------------------------------------------------------------------

    def _verify(
        self,
        tags: list[str],
        tuples: list[_PartialTuple],
        edges: list[tuple[int, int, int]],
    ) -> list[_PartialTuple]:
        if not edges:
            return tuples
        checks = [
            (p_slot, c_slot, self.query.node(self.chain[i + 1]).axis.is_pc)
            for i, p_slot, c_slot in edges
        ]
        out = []
        for t in tuples:
            ok = True
            for p_slot, c_slot, is_pc in checks:
                self.counters.comparisons += 1
                parent, child = t[p_slot], t[c_slot]
                if not (parent.start < child.start and child.end < parent.end):
                    ok = False
                    break
                if is_pc and child.level != parent.level + 1:
                    ok = False
                    break
            if ok:
                out.append(t)
        return out

    def _finalize(
        self, tags: list[str], tuples: list[_PartialTuple]
    ) -> list[_PartialTuple]:
        """Reorder components to query preorder (the result sorts
        them: :meth:`EvalResult.from_rows`)."""
        order = [tags.index(tag) for tag in self.chain]
        return [tuple(t[i] for i in order) for t in tuples]
