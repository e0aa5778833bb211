"""ViewJoin (paper Section IV): holistic TPQ evaluation over view segments.

The evaluation follows Algorithm 1:

1. compute the view-segmented query Q' (:mod:`segmentation`);
2. stream the per-tag lists of the Q' tags with one cursor each, produce
   solution nodes in document order via a segment-level ``get_next``
   (Function 3), and collect them in the DAG buffer ``F``;
3. when a new Q'-root solution falls outside the current partition, close
   it; once the closed partitions fill a page (and at end of input) extend
   ``F`` to the query tags outside Q' via the views' materialized pointers
   (or pager-accounted binary search under the element scheme) and emit
   their matches.

Skipping (``advance_pointers``, Function 4) dereferences following and
child pointers to jump cursors over entries that are provably dead.  Two
safety guards tighten the paper's pseudocode (documented in DESIGN.md §6):

* a following-pointer jump is taken only when the view node has no parent
  in its view — for parent-constrained nodes the pointer's
  same-lowest-ancestor group may hop over live entries, so those cursors
  advance sequentially;
* a child-pointer refresh is taken only when no buffered parent candidate
  region can still cover the entries being skipped
  (:meth:`DagBuffer.max_buffered_end`), and only across ad view edges.

Both guards only ever *reduce* skipping, never correctness: every engine in
this repository is differentially tested against the naive oracle.
"""

from __future__ import annotations

import time
from itertools import repeat
from operator import itemgetter
from typing import Mapping

from repro.algorithms.access import TagSource
from repro.algorithms.base import (
    _INF,
    Counters,
    CountingCursor,
    EvalResult,
    Mode,
)
from repro.algorithms.dag import (
    DagBuffer,
    MatchColumns,
    Positions,
    column_at,
)
from repro.algorithms.preempt import PlanState, QuantumBudget
from repro.algorithms.segmentation import Segment, SegmentedQuery, segment_query
from repro.errors import ContinuationMalformed
from repro.storage.pager import Pager
from repro.tpq.enumeration import Enumeration
from repro.tpq.pattern import Axis, Pattern

_solution_start = itemgetter(1)

#: Matches built per step of a preemptible flush: the granularity at
#: which the wall budget is honoured.  A slice re-expands the sub-matches
#: its rows share (the later children of a branching node), a fixed
#: 0.2-0.4 ms on the XMark twigs, against about a millisecond of list
#: comprehensions for this many rows.
_SLICE = 8192


def viewjoin(
    query: Pattern,
    sources: Mapping[str, TagSource],
    view_patterns: list[Pattern],
    mode: Mode = Mode.MEMORY,
    emit_matches: bool | str = True,
    spill_pager: Pager | None = None,
    sink=None,
) -> EvalResult:
    """Evaluate ``query`` with ViewJoin over a covering view set.

    Args:
        query: the tree pattern query.
        sources: per-tag access to the materialized views (E, LE or LE_p).
        view_patterns: the covering view patterns (define the segmentation).
        mode: memory- or disk-based output approach.
        emit_matches: materialize output tuples (False counts only,
            :data:`~repro.algorithms.base.KEYS` emits start-label tuples).
        spill_pager: pager for the disk-based spill.

    Returns:
        The evaluation result; matches equal those of every other engine.
    """
    run = _ViewJoinRun(
        query, sources, view_patterns, mode, emit_matches, spill_pager,
        sink=sink,
    )
    return run.execute()


def viewjoin_quantum(
    query: Pattern,
    sources: Mapping[str, TagSource],
    view_patterns: list[Pattern],
    mode: Mode = Mode.MEMORY,
    emit_matches: bool | str = True,
    spill_pager: Pager | None = None,
    budget: QuantumBudget | None = None,
    state: PlanState | None = None,
) -> tuple[EvalResult, PlanState | None]:
    """Run one quantum of a preemptible ViewJoin evaluation.

    With ``state=None`` the run starts fresh; otherwise it resumes the
    given snapshot (which must come from the same query/views/scheme/
    mode — the service's continuation tokens enforce that identity).
    ``budget=None`` (or an unbounded budget) runs to completion.

    Returns ``(result, next_state)``.  ``next_state`` is None when the
    evaluation finished; the result's ``matches`` then hold only this
    quantum's output page, while ``match_count`` / ``counters`` are
    cumulative over all quanta (equal, on the final quantum, to an
    uninterrupted run's — the differential contract of
    ``tests/test_preemption.py``).
    """
    run = _ViewJoinRun(
        query, sources, view_patterns, Mode.parse(mode), emit_matches,
        spill_pager, budget=budget, state=state, preemptible=True,
    )
    return run.run_quantum()


class _ViewJoinRun:
    def __init__(
        self,
        query: Pattern,
        sources: Mapping[str, TagSource],
        view_patterns: list[Pattern],
        mode: Mode,
        emit_matches: bool | str,
        spill_pager: Pager | None,
        sink=None,
        budget: QuantumBudget | None = None,
        state: PlanState | None = None,
        preemptible: bool = False,
    ):
        self.query = query
        self.sources = sources
        self.seg: SegmentedQuery = segment_query(query, view_patterns)
        self.counters = Counters()
        self._own_spill = False
        if Mode.parse(mode) is Mode.DISK and spill_pager is None:
            spill_pager = Pager(file_backed=True)
            self._own_spill = True
        self.spill_pager = spill_pager if Mode.parse(mode) is Mode.DISK else None
        self.dag = DagBuffer(
            query, self.counters, sources, emit_matches, self.spill_pager,
            sink=sink,
        )
        self.cursors: dict[str, CountingCursor] = {
            tag: sources[tag].cursor(self.counters)
            for tag in self.seg.retained
        }
        # Cached solutions (Function 2 lines 3-5): tag -> cursor position
        # proven to be a solution but not yet admitted to F.
        self.sol: dict[str, int] = {}
        # View nodes with no parent inside their view: their following
        # pointers are unconstrained, hence safe for skip-jumps.
        self._unconstrained = {
            tag
            for tag in self.seg.retained
            if self.seg.view_of(tag).node(tag).parent is None
        }
        # (parent_tag, child_tag) -> child-pointer slot usable for skip
        # jumps, or None; resolved once instead of per refresh.
        self._skip_slots: dict[tuple[str, str], int | None] = {}
        # Preemption state (repro.algorithms.preempt).  Plain runs keep
        # budget=None and never touch the suspension checks' slow side.
        self.budget = budget
        self._preemptible = bool(preemptible or budget is not None
                                 or state is not None)
        # What the last flush still owes: its matches stay factorized
        # (ranked, not built) from rank `_owed_from` on, over the
        # candidate positions `_owed_pools`.
        self._owed: Enumeration | None = None
        self._owed_pools: Positions = {}
        self._owed_from = 0
        self._done = False
        self.steps = 0
        self._quantum_steps = 0
        self._quantum_matches = 0
        self._quantum_begin = 0.0
        if state is not None:
            self._restore(state)

    # -- driver (Algorithm 1) ---------------------------------------------------

    def execute(self) -> EvalResult:
        result, state = self.run_quantum()
        assert state is None, "unbudgeted runs cannot suspend"
        return result

    def run_quantum(self) -> tuple[EvalResult, PlanState | None]:
        """Run until done or the quantum budget expires.

        The non-preemptible path (``viewjoin``) goes through here too
        with ``budget=None`` so there is exactly one driver loop — the
        differential preemption tests compare resumed runs against this
        very code, not a near-copy.
        """
        try:
            emitted: MatchColumns | None = None
            if self._preemptible:
                self._quantum_steps = 0
                self._quantum_matches = 0
                budget = self.budget
                if budget is not None and budget.max_seconds is not None:
                    self._quantum_begin = time.perf_counter()
                emitted = self.dag.page()
                self._drain_owed(emitted)
            if not self._done and self._owed is None:
                self._drive(emitted)
            if self._preemptible and (
                self._owed is not None or not self._done
            ):
                return self.dag.result(emitted), self.save_state()
            return self.dag.result(emitted), None
        finally:
            if self._own_spill and self.spill_pager is not None:
                self.spill_pager.close()

    def _drive(self, emitted: MatchColumns | None) -> None:
        root_tag = self.seg.root_tag
        root_segment = self.seg.root_segment
        root_cursor = self.cursors[root_tag]
        while True:
            if self._quantum_expired():
                return
            result = self._get_next(root_segment)
            if result is None:
                break
            self.steps += 1
            self._quantum_steps += 1
            tag = result[0]
            if tag == root_tag:
                self._flush(emitted, root_cursor)
            self._add_nodes(tag)
        self._done = True
        self._flush(emitted)

    # -- preemption (quantum boundary, suspend, resume) --------------------------

    def _quantum_expired(self) -> bool:
        """True when the driver loop must suspend *before* its next step.

        The check sits at the loop top, a consistent point: cursors rest
        on their heads, the open and the closed partitions are fully
        described by the DAG buffer, and whatever a flush still owes is
        its pools plus a rank.
        Time is measured as a ``perf_counter`` duration since the quantum
        began, and only after at least one step — a quantum always
        progresses, whatever the budget.
        """
        budget = self.budget
        if budget is None:
            return False
        if self._owed is not None:
            return True  # the page or the wall budget ended mid-flush
        steps = self._quantum_steps
        if budget.max_steps is not None and steps >= budget.max_steps:
            return True
        if (
            budget.max_matches is not None
            and self._quantum_matches >= budget.max_matches
        ):
            return True
        if (
            budget.max_seconds is not None
            and steps > 0
            and time.perf_counter() - self._quantum_begin
                >= budget.max_seconds
        ):
            return True
        return False

    def _flush(self, emitted: MatchColumns | None, root=None) -> None:
        """Let root solution ``root`` close the open partition, which
        flushes when a page of candidates is buffered; at end of input
        (``root=None``) flush what is left.  A preemptible run has the
        flush rank and charge its matches without building them, then
        builds as many as this quantum may emit; the rest stay
        factorized."""
        hold = emitted is not None
        if root is None:
            held = self.dag.flush(self._extend, hold)
        else:
            held = self.dag.enter_root(root, self._extend, hold)
        if held is not None:
            self._owed, self._owed_pools = held
            self._owed_from = 0
            self._drain_owed(emitted)

    def _drain_owed(self, emitted: MatchColumns) -> None:
        """Build owed matches slice by slice, in rank order, until none
        is owed or the page bound or the wall budget is reached — after
        at least one slice, so every quantum progresses."""
        owed = self._owed
        if owed is None:
            return
        budget = self.budget
        page = budget.max_matches if budget is not None else None
        seconds = budget.max_seconds if budget is not None else None
        begin = time.perf_counter()
        while True:
            start = self._owed_from
            stop = min(start + _SLICE, owed.total)
            if page is not None:
                stop = min(stop, start + page - self._quantum_matches)
            emitted.add(owed, start, stop)
            self._quantum_matches += stop - start
            self._owed_from = stop
            if stop == owed.total:
                self._owed = None
                self._owed_pools = {}
                self._owed_from = 0
                break
            if page is not None and self._quantum_matches >= page:
                break
            if (
                seconds is not None
                and time.perf_counter() - self._quantum_begin >= seconds
            ):
                break
        self.dag.output_seconds += time.perf_counter() - begin

    def save_state(self) -> PlanState:
        partition_end, buffered = self.dag.save_state()
        return PlanState(
            positions={
                tag: cursor.position for tag, cursor in self.cursors.items()
            },
            sol=dict(self.sol),
            partition_end=partition_end,
            buffered=buffered,
            pools={
                tag: list(positions)
                for tag, positions in self._owed_pools.items()
            },
            offset=self._owed_from,
            counters=Counters(**self.counters.as_dict()),
            steps=self.steps,
            done=self._done,
            match_count=self.dag.match_count,
            peak_entries=self.dag.peak_entries,
            output_seconds=self.dag.output_seconds,
        )

    def _restore(self, state: PlanState) -> None:
        """Load a snapshot, accounting-free (see ``CountingCursor.restore``).

        The counters object is mutated in place — the DAG buffer and
        every cursor already hold a reference to it.
        """
        if set(state.positions) != set(self.cursors):
            raise ContinuationMalformed(
                "snapshot cursor tags do not match the planned view set"
            )
        for key, value in state.counters.as_dict().items():
            setattr(self.counters, key, value)
        if not set(state.buffered) <= set(self.cursors):
            raise ContinuationMalformed(
                "snapshot buffers candidates for tags outside the"
                " segmented query"
            )
        self._recall(state.buffered)
        self.dag.restore_state(
            state.partition_end, state.buffered,
            match_count=state.match_count,
            peak_entries=state.peak_entries,
            output_seconds=state.output_seconds,
        )
        for tag, cursor in self.cursors.items():
            position = state.positions[tag]
            if position > len(cursor):
                raise ContinuationMalformed(
                    f"snapshot position {position} for {tag!r} is past the"
                    f" end of its list ({len(cursor)} entries)"
                )
            cursor.restore(position)
        self.sol = dict(state.sol)
        self._reopen(state.pools, state.offset)
        self.steps = state.steps
        self._done = state.done

    def _recall(self, pools: Positions) -> None:
        """Make a snapshot's candidate positions readable again: each
        inside its tag's list (their order was checked when the snapshot
        was decoded), its entry read once more."""
        for tag, positions in pools.items():
            source = self.sources[tag]
            if positions and positions[-1] >= len(source):
                raise ContinuationMalformed(
                    f"snapshot candidate {positions[-1]} of {tag!r} is past"
                    f" the end of its list ({len(source)} entries)"
                )
            source.recall(positions)

    def _reopen(self, pools: Positions, offset: int) -> None:
        """Rank a snapshot's owed pools again."""
        if not pools:
            if offset:
                raise ContinuationMalformed(
                    "snapshot has an output offset but owes no pools"
                )
            return
        if set(pools) != set(self.dag.plan.tags):
            raise ContinuationMalformed(
                "snapshot's owed pools do not match the query's tags"
            )
        self._recall(pools)
        owed = self.dag.reopen(pools)
        if offset >= owed.total:
            raise ContinuationMalformed(
                f"snapshot's output offset {offset} is past its owed"
                f" pools' {owed.total} matches"
            )
        self._owed = owed
        self._owed_pools = pools
        self._owed_from = offset

    # -- get_next (Function 3) -----------------------------------------------------

    def _get_next(self, segment: Segment) -> tuple[str, int] | None:
        """Next solution node reachable through ``segment`` as a
        ``(tag, start)`` pair, or None when the segment can produce no
        further solutions.  Solutions are always current cursor heads, so
        the raw start label identifies the entry without constructing it.

        A None child is skipped rather than propagated: its tags may still
        pair with already-buffered candidates, so sibling segments continue.
        """
        self.counters.getnext_calls += 1
        root_tag = segment.root_tag
        root_cursor = self.cursors[root_tag]
        if segment.is_leaf:
            root_start = root_cursor.start
            if root_start is _INF:
                return None
            return (root_tag, root_start)
        # Note: the paper's Function 3 also short-circuits on a cached
        # solution (sol) for non-leaf segments.  That hides smaller pending
        # solutions in child segments and can flush a partition before they
        # are admitted (DESIGN.md §6), so cached solutions here only exempt
        # their entries from being skipped, never from recursion.

        while True:
            solutions: list[tuple[str, int]] = []
            restart = False
            for child in segment.children:
                settled = self._get_next(child)
                if settled is None:
                    continue
                s_tag, s_start = settled
                if s_tag != child.root_tag:
                    # A deeper blocking solution; propagate for admission.
                    solutions.append(settled)
                    continue
                parent_tag = child.parent_tag
                assert parent_tag is not None
                parent_cursor = self.cursors[parent_tag]
                p_start = parent_cursor.start
                self.counters.comparisons += 1
                if s_start < p_start:
                    child_cursor = self.cursors[s_tag]
                    if self.dag.open_ancestor(
                        parent_tag, child_cursor.start, child_cursor.end
                    ):
                        solutions.append(settled)
                    else:
                        self._advance_segment_root(
                            child.root_tag, parent_tag, p_start
                        )
                        restart = True
                        break
                elif s_start > parent_cursor.end:
                    # parent head cannot contain this (or any later) child
                    # solution: skip dead parent entries via pointers.
                    self._advance_pointers(parent_tag, s_start)
                    restart = True
                    break
                else:
                    solutions.append(settled)
            if not restart:
                break

        for tag in segment.tags:
            head_start = self.cursors[tag].start
            if head_start is not _INF:
                solutions.append((tag, head_start))
        if not solutions:
            return None
        return min(solutions, key=_solution_start)

    # -- add_nodes (Function 2) -------------------------------------------------------

    def _add_nodes(self, tag: str) -> None:
        """Admit the Q' subtree of ``tag`` to F in top-down order.

        A node whose cursor starts after its (already advanced) parent
        cursor may belong under a later parent candidate: it is cached as a
        known solution (``sol``) instead, and get_next short-circuits on it.
        """
        root_tag = self.seg.root_tag
        for qi in self.seg.subtree_tags(tag):
            cursor = self.cursors[qi]
            if cursor.start is _INF:
                continue
            if qi != root_tag:
                parent_cursor = self.cursors[self.seg.parent_of[qi]]
                parent_start = parent_cursor.start
                self.counters.comparisons += 1
                if parent_start is not _INF and cursor.start > parent_start:
                    self.sol[qi] = cursor.position
                    break
            self.dag.add(qi, cursor.position, cursor.start, cursor.end)
            self.sol.pop(qi, None)
            cursor.advance()

    # -- skipping (Function 4) -----------------------------------------------------------

    def _advance_segment_root(
        self, tag: str, parent_tag: str, bound: float
    ) -> None:
        """Advance a child-segment root past entries that start before the
        parent head and have no buffered parent candidate (lines 15-16)."""
        cursor = self.cursors[tag]
        cursor.advance()
        while cursor.start < bound:
            self.counters.comparisons += 1
            if self.dag.open_ancestor(parent_tag, cursor.start, cursor.end):
                break
            cursor.advance()

    def _advance_pointers(self, parent_tag: str, limit: int) -> None:
        """Skip dead ``parent_tag`` entries (end < limit), then refresh the
        cursors of its Q' descendants via materialized pointers."""
        self._advance_tag_past(parent_tag, limit)
        self._refresh_descendants(parent_tag)

    def _advance_tag_past(self, tag: str, limit: int) -> None:
        """Advance ``tag``'s cursor until its head's end reaches ``limit``.

        Entries with ``end < limit`` cannot contain the next (or any later)
        child-segment solution, so they are dead.  When the view node is
        unconstrained its following pointer jumps the dead entry's whole
        subtree (a null pointer proves every remaining entry is a
        descendant of the dead head, exhausting the list); otherwise the
        cursor advances sequentially.
        """
        cursor = self.cursors[tag]
        use_pointers = (
            tag in self._unconstrained and self.sources[tag].has_pointers
        )
        while cursor.start is not _INF:
            self.counters.comparisons += 1
            if cursor.end >= limit:
                break
            if use_pointers:
                target = cursor.following
                if target >= 0:
                    cursor.seek_pointer(target)
                    continue
                if target == -1:  # NULL: remaining entries nest inside head
                    cursor.seek_pointer(len(cursor))
                    continue
                # UNMATERIALIZED (LE_p): the target is adjacent.
            cursor.advance()

    def _refresh_descendants(self, tag: str) -> None:
        """Move the cursors of ``tag``'s Q' descendants up to the freshly
        advanced ancestor context (Function 4 lines 3-13).

        Jump rules (each provably skips only dead entries):

        * only when no buffered parent candidate region still covers the
          entries being skipped;
        * via the parent head's child pointer when the Q' edge is also an
          ad view edge with a materialized pointer;
        * otherwise sequentially up to the parent head's start.
        """
        for qi in self.seg.subtree_tags(tag)[1:]:
            parent_tag = self.seg.parent_of[qi]
            parent_cursor = self.cursors[parent_tag]
            parent_start = parent_cursor.start
            if parent_start is _INF:
                continue
            cursor = self.cursors[qi]
            if cursor.start is _INF:
                continue
            if self.sol.get(qi) == cursor.position:
                continue  # never skip a cached solution
            self.counters.comparisons += 1
            if self.dag.max_buffered_end(parent_tag) > cursor.start:
                continue  # a buffered ancestor may still pair with skipped entries
            target = self._pointer_target(parent_tag, qi)
            if target is not None:
                cursor.seek_pointer(target)
                continue
            cursor.advance_past(parent_start)

    def _pointer_target(self, parent_tag: str, child_tag: str) -> int | None:
        """Entry index of the parent head's first ``child_tag`` partner, if
        a materialized ad child pointer provides it."""
        key = (parent_tag, child_tag)
        slot = self._skip_slots.get(key, -1)
        if slot == -1:
            slot = self._resolve_skip_slot(parent_tag, child_tag)
            self._skip_slots[key] = slot
        if slot is None:
            return None
        target = self.cursors[parent_tag].child_pointer(slot)
        if target < 0:
            return None
        return target

    def _resolve_skip_slot(self, parent_tag: str, child_tag: str) -> int | None:
        """Child-pointer slot usable for skip jumps on this Q' edge, if any
        (linked scheme, ad view edge directly below ``parent_tag``)."""
        source = self.sources[parent_tag]
        if not source.has_pointers:
            return None
        view = self.seg.view_of(parent_tag)
        if not view.has_tag(child_tag):
            return None
        child_node = view.node(child_tag)
        if child_node.parent is None or child_node.parent.tag != parent_tag:
            return None
        if child_node.axis is not Axis.DESCENDANT:
            return None  # pc pointers may overshoot ad candidates
        return source.child_slot(child_tag)

    # -- flush extension (Algorithm 1 line 10) ----------------------------------------------

    def _extend(self, buffered: Positions) -> Positions:
        """The candidates of the query tags outside Q', by position.

        Tags outside Q' were never scanned; their entries are fetched per
        flush from the regions of their view-parent candidates — via
        materialized child pointers under LE/LE_p, or pager-accounted
        binary search under the element scheme (Section III-B advantage 3).
        """
        # `fetched` is filled in view preorder and the flush-time
        # enumerator looks every pool up by tag — iteration order here
        # cannot leak into output.
        fetched: dict = {}
        for view in self.seg.views:
            for qnode in view.nodes:
                tag = qnode.tag
                if tag in self.cursors:
                    continue
                assert qnode.parent is not None, "view roots are always in Q'"
                parent_tag = qnode.parent.tag
                fetched[tag] = self._fetch_in_regions(
                    tag,
                    fetched[parent_tag] if parent_tag in fetched
                    else buffered.get(parent_tag, ()),
                    use_pointer=(qnode.axis is Axis.DESCENDANT),
                    parent_tag=parent_tag,
                )
        return fetched

    def _fetch_in_regions(
        self,
        tag: str,
        parents,
        use_pointer: bool,
        parent_tag: str,
    ):
        """Positions of all ``tag`` entries inside the outermost regions
        of the ``parent_tag`` candidates at positions ``parents``.

        A region's entries are one index run of ``tag``'s list; runs of
        successive regions that touch are merged, and a single run comes
        back as a ``range``.
        """
        source = self.sources[tag]
        parent_source = self.sources[parent_tag]
        parent_labels = parent_source.labels
        slot = (
            parent_source.child_slot(tag)
            if use_pointer and parent_source.has_pointers
            else None
        )
        runs: list[tuple[int, int]] = []
        last_end = -1
        for start, end, pointer in zip(
            column_at(parent_labels.starts, parents),
            column_at(parent_labels.ends, parents),
            column_at(parent_labels.children[slot], parents)
            if slot is not None else repeat(None),
        ):
            if start < last_end:
                continue  # nested inside the previous region: already fetched
            last_end = end
            if pointer is None:
                index = source.bisect_start(start, self.counters)
            elif pointer >= 0:
                index = pointer
                self.counters.pointer_jumps += 1
            else:
                continue  # null child pointer: no partner in this region
            stop = source.collect_from(index, end, self.counters)
            if runs and runs[-1][1] == index:
                runs[-1] = (runs[-1][0], stop)
            elif stop > index:
                runs.append((index, stop))
        if len(runs) == 1:
            return range(*runs[0])
        return [position for run in runs for position in range(*run)]
