"""DagBuffer unit tests (the intermediate-solution structure F)."""

from __future__ import annotations

import gc

import pytest

from repro.algorithms.base import KEYS, Counters, match_rows
from repro.storage.pager import Pager
from repro.storage.records import ElementEntry
from repro.tpq.parser import parse_pattern
from repro.errors import EvaluationError
from repro.tpq.enumeration import Enumeration
from tests.collector_probe import collections_started, started_inside
from tests.synthetic_lists import admit, buffer_over

Q = parse_pattern("//a//b")


def entry(start, end, level=1):
    return ElementEntry(start, end, level)


def test_add_and_candidates():
    dag = buffer_over(Q)
    admit(dag, "a", entry(0, 10, 0))
    admit(dag, "a", entry(2, 8, 1))
    admit(dag, "b", entry(3, 4, 2))
    assert dag.save_state() == (None, {"a": [0, 1], "b": [0]})
    assert dag.buffered_entries == 3
    assert dag.peak_entries == 3


def test_duplicate_adds_ignored():
    dag = buffer_over(Q)
    admit(dag, "a", entry(0, 10, 0))
    admit(dag, "a", entry(0, 10, 0))
    assert dag.buffered_entries == 1


def test_out_of_order_add_rejected():
    dag = buffer_over(Q)
    admit(dag, "a", entry(5, 10, 0))
    with pytest.raises(EvaluationError):
        admit(dag, "a", entry(1, 2, 0))


def test_has_open_ancestor_exact():
    dag = buffer_over(Q)
    admit(dag, "a", entry(0, 100, 0))
    admit(dag, "a", entry(10, 20, 1))
    # inside the nested region
    assert dag.open_ancestor("a", 12, 13)
    # inside the outer but after the nested region closed — the
    # order-sensitive stack formulation would have popped (0, 100) here.
    assert dag.open_ancestor("a", 50, 60)
    # outside everything
    assert not dag.open_ancestor("a", 200, 201)
    # unknown tag
    assert not dag.open_ancestor("zzz", 12, 13)


def test_has_open_ancestor_requires_proper_containment():
    dag = buffer_over(Q)
    admit(dag, "a", entry(10, 20, 1))
    assert not dag.open_ancestor("a", 5, 25)   # contains it
    assert not dag.open_ancestor("a", 10, 20)  # equal


def test_max_buffered_end():
    dag = buffer_over(Q)
    assert dag.max_buffered_end("a") == -1
    admit(dag, "a", entry(0, 100, 0))
    admit(dag, "a", entry(10, 20, 1))
    assert dag.max_buffered_end("a") == 100


def test_flush_counts_matches():
    counters = Counters()
    dag = buffer_over(Q, counters)
    dag.enter_root(entry(0, 100, 0))
    admit(dag, "a", entry(0, 100, 0))
    admit(dag, "b", entry(3, 4, 1))
    admit(dag, "b", entry(7, 8, 1))
    dag.flush()
    assert dag.match_count == 2
    assert counters.matches == 2
    assert counters.flushes == 1
    assert dag.buffered_entries == 0
    assert dag.save_state() == (None, {})


def test_flush_without_partition_is_noop():
    counters = Counters()
    dag = buffer_over(Q, counters)
    admit(dag, "a", entry(0, 10, 0))  # junk with no partition root
    dag.flush()
    assert counters.flushes == 0
    assert dag.match_count == 0


def test_flush_extend_callback():
    dag = buffer_over(Q)
    dag.enter_root(entry(0, 100, 0))
    admit(dag, "a", entry(0, 100, 0))

    def extend(buffered):
        assert buffered == {"a": [0]}
        dag.lists["b"].append(entry(3, 4, 1))
        return {"b": range(0, 1)}

    dag.flush(extend)
    assert dag.match_count == 1


def test_emit_matches_toggle():
    dag = buffer_over(Q, emit_matches=False)
    dag.enter_root(entry(0, 100, 0))
    admit(dag, "a", entry(0, 100, 0))
    admit(dag, "b", entry(3, 4, 1))
    dag.flush()
    assert dag.match_count == 1
    assert dag.result().matches == []


def test_disk_spill_roundtrip():
    pager = Pager(file_backed=True)
    try:
        counters = Counters()
        dag = buffer_over(Q, counters, spill_pager=pager)
        dag.enter_root(entry(0, 100, 0))
        admit(dag, "a", entry(0, 100, 0))
        admit(dag, "b", entry(3, 4, 1))
        dag.flush()
        assert dag.match_count == 1
        # The spill wrote pages and read them back.
        assert pager.page_file.stats.pages_written > 0
        assert pager.pool.stats.logical_reads > 0
    finally:
        pager.close()


def test_peak_tracking_across_partitions():
    dag = buffer_over(Q)
    dag.enter_root(entry(0, 10, 0))
    admit(dag, "a", entry(0, 10, 0))
    admit(dag, "b", entry(1, 2, 1))
    dag.flush()
    dag.enter_root(entry(20, 30, 0))
    admit(dag, "a", entry(20, 30, 0))
    assert dag.peak_entries == 2  # the first partition's high-water mark
    assert dag.peak_bytes == 2 * 12


@pytest.mark.parametrize("emit", [True, KEYS])
def test_flush_pauses_the_collector_for_the_expansion_only(emit):
    """One root over 20 000 leaves, the leaves fetched by ``extend``:
    no collection starts inside the flush's ``take`` (columns: nothing
    to collect) nor while ``match_rows`` zips them into the tuples the
    ``sink`` is promised, with the collector paused for that expansion
    only.  What the caller supplies — ``extend`` and the ``sink`` — runs
    with the collector on, as does whatever follows the flush."""
    n = 20_000
    seen = []

    def extend(buffered):
        seen.append(("extend", gc.isenabled()))
        leaves = dag.lists["b"]
        for i in range(n):
            leaves.append(entry(2 * i + 1, 2 * i + 2, 1))
        return {"b": range(n)}

    def sink(batch):
        seen.append(("sink", gc.isenabled(), len(batch)))

    dag = buffer_over(Q, emit_matches=emit, sink=sink)
    dag.enter_root(entry(0, 2 * n + 1, 0))
    admit(dag, "a", entry(0, 2 * n + 1, 0))
    with collections_started() as started:
        dag.flush(extend)
        assert gc.isenabled()
        gc.collect()  # seen, and outside: the probe was live
    assert seen == [("extend", True), ("sink", True, n)]
    assert started[-1][0] == 2  # the explicit collection: the probe was live
    assert started_inside(started, Enumeration.take) == []
    assert started_inside(started, match_rows) == []
