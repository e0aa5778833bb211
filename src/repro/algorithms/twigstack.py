"""TwigStack (Bruno et al., SIGMOD 2002) over materialized views.

The holistic twig-join baseline: one element stream per query node, a
``get_next`` recursion that returns the next stream whose head can act, and
per-node stacks of open regions deciding which heads are admitted as
candidate solutions.  Heads are admitted to the shared :class:`DagBuffer`
and partitions are enumerated exactly on flush, so TwigStack, PathStack and
ViewJoin all emit identical match sets.

Per paper Table I, TwigStack runs over views in the element scheme (TS+E)
and — via our extension that simply treats the larger linked records as
plain element streams — over LE and LE_p views (TS+LE, TS+LEp).  TwigStack
never exploits the materialized pointers; it scans every entry of every
input list, which is exactly the behaviour ViewJoin's skipping is measured
against.
"""

from __future__ import annotations

from typing import Mapping

from repro.algorithms.access import TagSource
from repro.algorithms.base import (
    _INF,
    Counters,
    CountingCursor,
    EvalResult,
    Mode,
)
from repro.algorithms.dag import DagBuffer
from repro.storage.pager import Pager
from repro.tpq.pattern import Pattern, PatternNode


def twigstack(
    query: Pattern,
    sources: Mapping[str, TagSource],
    mode: Mode = Mode.MEMORY,
    emit_matches: bool | str = True,
    spill_pager: Pager | None = None,
    strict_pc: bool = False,
    sink=None,
) -> EvalResult:
    """Evaluate ``query`` with TwigStack over per-tag element streams.

    Args:
        query: the tree pattern query.
        sources: one :class:`TagSource` per query tag (from the views).
        mode: memory- or disk-based output (paper Section IV variations).
        emit_matches: materialize output tuples (False counts only).
        spill_pager: pager for the disk-based spill; a temp-file pager is
            created when mode is DISK and none is given.
        strict_pc: admit a pc-edge child only when its *direct* parent is a
            buffered candidate (level-exact check).  Classic TwigStack
            treats pc-edges as ad-edges during filtering and defers the
            level check to output, which admits useless candidates — the
            suboptimality TwigStackList-style refinements remove.  Safe:
            a pc-child whose direct parent was never admitted cannot occur
            in any match.

    Returns:
        The evaluation result with matches, counters and buffer peaks.
    """
    run = _TwigStackRun(
        query, sources, mode, emit_matches, spill_pager, sink=sink,
        strict_pc=strict_pc,
    )
    return run.execute()


class _TwigStackRun:
    def __init__(
        self,
        query: Pattern,
        sources: Mapping[str, TagSource],
        mode: Mode,
        emit_matches: bool | str,
        spill_pager: Pager | None,
        sink=None,
        strict_pc: bool = False,
    ):
        self.query = query
        self.strict_pc = strict_pc
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
            tag: sources[tag].cursor(self.counters) for tag in query.tags()
        }
        #: per tag, its list's level column (strict pc admission)
        self._levels = {
            tag: sources[tag].labels.levels for tag in query.tags()
        }

    def execute(self) -> EvalResult:
        try:
            root = self.query.root
            while True:
                qnode = self._get_next(root)
                if qnode is None:
                    break
                if self.cursors[qnode.tag].exhausted:
                    break  # degenerate single-node query at end of stream
                self._act_on(qnode)
            self.dag.flush()
            return self.dag.result()
        finally:
            if self._own_spill and self.spill_pager is not None:
                self.spill_pager.close()

    # -- core --------------------------------------------------------------------

    def _get_next(self, qnode: PatternNode) -> PatternNode | None:
        """The stream whose head should be processed next, or None at end.

        Classic TwigStack ``getNext``: for inner nodes, recursively settle
        every child, then slide this node's cursor below the largest child
        head; return this node if its head starts before every child head,
        else the smallest child.  Exhausted streams behave as heads at
        +infinity: an exhausted child forces the remaining entries of this
        node's own stream to be skipped (they can no longer acquire a
        subtree match), while live sibling streams keep feeding the stacks.
        """
        self.counters.getnext_calls += 1
        cursor = self.cursors[qnode.tag]
        if qnode.is_leaf:
            return qnode
        min_child: PatternNode | None = None
        min_start = _INF
        max_start = -1.0
        for child in qnode.children:
            settled = self._get_next(child)
            if settled is None:
                head_start = _INF
            elif settled is not child:
                return settled
            else:
                head_start = self.cursors[child.tag].start
            if head_start < min_start:
                min_child, min_start = child, head_start
            if head_start > max_start:
                max_start = head_start
        while cursor.end < max_start:
            self.counters.comparisons += 1
            cursor.advance()
        head_start = cursor.start
        if head_start is not _INF:
            self.counters.comparisons += 1
            if head_start < min_start:
                return qnode
        if min_child is None:
            return None
        return min_child

    def _act_on(self, qnode: PatternNode) -> None:
        cursor = self.cursors[qnode.tag]
        if qnode.parent is None:
            self.dag.enter_root(cursor)
            admit = True
        else:
            self.counters.comparisons += 1
            admit = self._admissible(qnode, cursor)
        if admit:
            self.dag.add(
                qnode.tag, cursor.position, cursor.start, cursor.end
            )
        cursor.advance()

    def _admissible(self, qnode: PatternNode, cursor: CountingCursor) -> bool:
        parent_tag = qnode.parent.tag
        if self.strict_pc and qnode.axis.is_pc:
            container = self.dag.innermost_container_at(
                parent_tag, cursor.start, cursor.end
            )
            return (
                container is not None
                and self._levels[parent_tag][container] == cursor.level - 1
            )
        return self.dag.open_ancestor(parent_tag, cursor.start, cursor.end)
