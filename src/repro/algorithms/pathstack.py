"""PathStack (Al-Khalifa et al., ICDE 2002) for path queries.

The stack-chaining predecessor of TwigStack: streams are merged in global
document order; an element is admitted when the stack of its parent query
node holds an open region containing it.  For path queries TwigStack
degenerates to PathStack (the paper notes "TS for path queries is
equivalent to the PathStack algorithm"), but we keep the classic
formulation as its own engine because the Section VI-A tuple-vs-element
comparison is defined against PathStack.
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
from repro.errors import EvaluationError
from repro.storage.pager import Pager
from repro.tpq.pattern import Pattern


def pathstack(
    query: Pattern,
    sources: Mapping[str, TagSource],
    mode: Mode = Mode.MEMORY,
    emit_matches: bool | str = True,
    spill_pager: Pager | None = None,
) -> EvalResult:
    """Evaluate a path ``query`` with PathStack over per-tag streams.

    Raises:
        EvaluationError: if ``query`` is not a path (use TwigStack instead).
    """
    if not query.is_path():
        raise EvaluationError(
            f"PathStack handles path queries only; {query.to_xpath()} branches"
        )
    counters = Counters()
    own_spill = False
    spill = None
    if Mode.parse(mode) is Mode.DISK:
        spill = spill_pager if spill_pager is not None else Pager(file_backed=True)
        own_spill = spill_pager is None
    dag = DagBuffer(query, counters, sources, emit_matches, spill)
    try:
        _sweep(query, sources, counters, dag)
        dag.flush()
        return dag.result()
    finally:
        if own_spill and spill is not None:
            spill.close()


def _sweep(
    query: Pattern,
    sources: Mapping[str, TagSource],
    counters: Counters,
    dag: DagBuffer,
) -> None:
    chain = list(query.nodes)  # a path: preorder == chain order
    cursors: dict[str, CountingCursor] = {
        qnode.tag: sources[qnode.tag].cursor(counters) for qnode in chain
    }
    while True:
        # Pick the stream with the globally smallest head start.
        qmin = None
        qmin_start = _INF
        for qnode in chain:
            head_start = cursors[qnode.tag].start
            if head_start is _INF:
                continue
            counters.comparisons += 1
            if qmin is None or head_start < qmin_start:
                qmin = qnode
                qmin_start = head_start
        if qmin is None:
            return
        # Once the top stream is exhausted, deeper elements can no longer
        # find new ancestors; remaining admissions still happen for streams
        # with smaller heads, so only stop when everything is exhausted.
        cursor = cursors[qmin.tag]
        if qmin.parent is None:
            dag.enter_root(cursor)
            admit = True
        else:
            counters.comparisons += 1
            admit = dag.open_ancestor(
                qmin.parent.tag, cursor.start, cursor.end
            )
        if admit:
            dag.add(qmin.tag, cursor.position, cursor.start, cursor.end)
        cursor.advance()
