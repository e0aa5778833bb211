"""Drive a :class:`DagBuffer` over synthetic lists, without a catalog.

The buffer holds candidates as positions in their tag's list, so a unit
test needs lists to index: one packed element column set per query tag,
grown as the test admits entries.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import repro.algorithms.dag as dag_module
from repro.algorithms.base import Counters
from repro.algorithms.dag import DagBuffer
from repro.storage.records import ElementColumns, ElementEntry
from repro.tpq.pattern import Pattern


def buffer_over(query: Pattern, counters: Counters | None = None, **options):
    """A buffer for ``query`` over one empty synthetic list per tag."""
    sources = {
        tag: SimpleNamespace(labels=ElementColumns()) for tag in query.tags()
    }
    dag = DagBuffer(
        query, Counters() if counters is None else counters, sources,
        **options,
    )
    dag.lists = {tag: source.labels for tag, source in sources.items()}
    return dag


def admit(dag: DagBuffer, tag: str, entry: ElementEntry) -> int:
    """Append ``entry`` to ``tag``'s synthetic list (unless it is the
    list's last entry already) and admit it by position."""
    columns = dag.lists[tag]
    if not len(columns) or columns.entry(len(columns) - 1) != entry:
        columns.append(entry)
    position = len(columns) - 1
    dag.add(tag, position, entry.start, entry.end)
    return position


def page_capacity(entries: int):
    """Context manager: buffers built inside flush once they hold
    ``entries`` candidates.  ``page_capacity(1)`` is the degenerate case,
    one flush per closed partition — the paper's granularity, and what
    every paged run must equal in all but the number of flushes."""
    return mock.patch.object(
        dag_module, "page_capacity", lambda spill_pager: entries
    )
