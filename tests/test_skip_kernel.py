"""Differential tests for the skip-ahead cursor kernel (DESIGN.md §13).

``CountingCursor.advance_past(bound)`` must be *byte-identical* — in
position, head labels, work counters and buffer-pool I/O statistics — to
the literal sequential loop it replaces::

    while cursor.start < bound:
        cursor.counters.comparisons += 1
        cursor.advance()

The kernel bisects the packed start column and replays the loop's
accounting in bulk (``BufferPool.touch_run``).  Each test drives one
cursor through the kernel and a twin cursor (same entries, its own
pager) through the loop, then compares every observable; the twin is
either another ``CountingCursor`` or the row-wise reference cursor
(``tests/rowwise_reference.py``) over the pool-served reader of the same
pages, whose ``advance_past`` *is* the literal loop over records decoded
through the pool.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import Counters, CountingCursor
from repro.storage.lists import StoredList
from repro.storage.pager import Pager
from repro.storage.records import ElementEntry, element_codec
from tests.rowwise_reference import PoolServedList, RowwiseCursor

#: Small pages so a modest list spans many pages (page crossings are the
#: interesting accounting case).
PAGE_SIZE = 64


def make_cursor(num=40, reference=False, stride=3):
    """A cursor over a fresh list: the kernel's ``CountingCursor``, or
    with ``reference=True`` the row-wise reference cursor over the
    list's pages."""
    pager = Pager(page_size=PAGE_SIZE)
    stored = StoredList(pager, element_codec())
    stored.extend(
        ElementEntry(stride * i, stride * i + 1, 0) for i in range(num)
    )
    stored.finalize()
    if reference:
        return RowwiseCursor(PoolServedList(stored), Counters(), {}), pager
    return CountingCursor(stored, Counters()), pager


def literal_skip(cursor, bound):
    """The sequential loop `advance_past` replaces, verbatim."""
    while cursor.start < bound:
        cursor.counters.comparisons += 1
        cursor.advance()


def observables(cursor, pager):
    stats = pager.pool.stats
    return (
        cursor.position,
        cursor.start,
        cursor.end,
        cursor.counters.as_dict(),
        stats.logical_reads,
        stats.physical_reads,
    )


def assert_twins_equal(bounds, num=40, reference=False, interleave=0):
    """Drive the kernel and the literal loop through the same script
    (``reference=True``: the loop runs on the reference cursor)."""
    fast, fast_pager = make_cursor(num)
    slow, slow_pager = make_cursor(num, reference=reference)
    for bound in bounds:
        fast.advance_past(bound)
        literal_skip(slow, bound)
        for _ in range(interleave):
            fast.advance()
            slow.advance()
        assert observables(fast, fast_pager) == observables(
            slow, slow_pager
        ), f"diverged after bound {bound}"


def test_kernel_matches_loop_on_single_page_skips():
    assert_twins_equal([4, 7, 10, 13])


def test_kernel_matches_loop_across_page_boundaries():
    # stride=3, 40 entries, 64-byte pages: bounds land mid-page and on
    # page seams; the multi-page list is a precondition of the test.
    _, pager = make_cursor(40)
    assert pager.page_file.num_pages > 3
    assert_twins_equal([5, 29, 30, 31, 60, 90, 118])


def test_kernel_matches_loop_when_skipping_to_exhaustion():
    assert_twins_equal([10, 10_000])
    fast, _ = make_cursor(8)
    fast.advance_past(10_000)
    assert fast.exhausted
    assert fast.position == len(fast)


def test_kernel_is_a_noop_below_the_current_start():
    fast, pager = make_cursor(20)
    fast.advance_past(30)
    before = observables(fast, pager)
    fast.advance_past(30)   # bound == current start: `start < bound` false
    fast.advance_past(0)    # bound behind the cursor
    assert observables(fast, pager) == before
    # Exhausted cursors stay exhausted without touching counters.
    fast.advance_past(10_000)
    after = observables(fast, pager)
    fast.advance_past(20_000)
    assert observables(fast, pager) == after


def test_kernel_composes_with_plain_advances():
    # Skip / step / skip: the kernel must leave the page-tracking state
    # (`_page`, `_page_hi`) exactly where the loop would, or the next
    # plain advance mis-attributes its touch.
    assert_twins_equal([9, 33, 57, 81, 105], interleave=2)


def test_non_columnar_fallback_matches_loop():
    """The literal loop on the row-wise reference cursor — until PR 19
    ``CountingCursor``'s own fallback for a list without columns."""
    assert_twins_equal([5, 29, 60, 118], reference=True)
    assert_twins_equal([9, 33, 57, 81, 105], reference=True, interleave=2)
    cursor, _ = make_cursor(10, reference=True)
    assert isinstance(cursor.cursor.list, PoolServedList)  # pool-served


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_kernel_matches_loop_on_derived_bound_scripts(seed):
    # Deterministic pseudo-random bound scripts (no `random`: arithmetic
    # scramble keyed by the seed) covering short hops and long leaps.
    bounds = sorted((seed * 7 + k * k * 11) % 130 for k in range(9))
    assert_twins_equal(bounds, num=42)
    assert_twins_equal(bounds, num=42, reference=True)


# -- touch_run: the bulk accounting mirror -------------------------------------

def make_pages(num_entries=40):
    pager = Pager(page_size=PAGE_SIZE)
    stored = StoredList(pager, element_codec())
    stored.extend(ElementEntry(i, i + 1, 0) for i in range(num_entries))
    stored.finalize()
    page_ids, _ = stored.page_map()
    return pager, page_ids


def pool_state(pager):
    stats = pager.pool.stats
    return (stats.logical_reads, stats.physical_reads)


def test_touch_run_equals_repeated_touch():
    a, pages_a = make_pages()
    b, pages_b = make_pages()
    assert pages_a == pages_b
    script = [
        (pages_a[0], 3), (pages_a[0], 1), (pages_a[1], 5),
        (pages_a[0], 2), (pages_a[2], 4), (pages_a[2], 7),
    ]
    for page_id, count in script:
        a.pool.touch_run(page_id, 9, count)
        for _ in range(count):
            b.pool.touch(page_id, 9)
        assert pool_state(a) == pool_state(b), (page_id, count)


def test_touch_run_zero_and_negative_counts_are_noops():
    pager, pages = make_pages()
    before = pool_state(pager)
    pager.pool.touch_run(pages[0], 9, 0)
    pager.pool.touch_run(pages[0], 9, -3)
    assert pool_state(pager) == before


def test_touch_run_counts_one_residency_transition_per_run():
    pager, pages = make_pages()
    pager.pool.touch_run(pages[0], 9, 10)
    assert pool_state(pager) == (10, 1)
    # Re-touching the MRU page costs no further physical read.
    pager.pool.touch_run(pages[0], 9, 10)
    assert pool_state(pager) == (20, 1)
    pager.pool.touch_run(pages[1], 9, 1)
    pager.pool.touch_run(pages[0], 9, 2)  # still resident
    assert pool_state(pager) == (23, 2)
