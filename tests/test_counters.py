"""Counters / EvalResult bookkeeping tests."""

from __future__ import annotations

from repro.algorithms.base import (
    Counters,
    CountingCursor,
    EvalResult,
)
from repro.storage.lists import StoredList
from repro.storage.pager import Pager
from repro.storage.records import ElementEntry, element_codec


def test_counters_merge_and_work():
    a = Counters(elements_scanned=1, pointer_jumps=2, comparisons=3,
                 candidates_added=4, intermediate_tuples=5)
    b = Counters(elements_scanned=10, matches=7, flushes=1)
    a.merge(b)
    assert a.elements_scanned == 11
    assert a.matches == 7
    assert a.work == 11 + 2 + 3 + 4 + 5
    as_dict = a.as_dict()
    assert as_dict["elements_scanned"] == 11
    assert set(as_dict) >= {
        "elements_scanned", "pointer_jumps", "entries_skipped",
        "comparisons", "getnext_calls", "candidates_added",
        "intermediate_tuples", "flushes", "matches",
    }


def test_eval_result_match_keys_sorted():
    matches = [
        (ElementEntry(5, 6, 1), ElementEntry(7, 8, 2)),
        (ElementEntry(1, 9, 1), ElementEntry(2, 3, 2)),
    ]
    result = EvalResult.from_rows(matches, Counters())
    assert result.match_keys() == [(1, 2), (5, 7)]
    assert [m[0].start for m in result.matches] == [1, 5]


def make_cursor(num=10):
    pager = Pager()
    stored = StoredList(pager, element_codec())
    stored.extend(ElementEntry(i, i + 1, 0) for i in range(num))
    stored.finalize()
    return CountingCursor(stored, Counters())


def test_counting_cursor_attribution():
    cursor = make_cursor()
    cursor.advance()
    cursor.advance()
    assert cursor.counters.elements_scanned == 2
    cursor.seek_pointer(7)
    assert cursor.counters.pointer_jumps == 1
    assert cursor.counters.entries_skipped == 4  # skipped 3, 4, 5, 6
    assert cursor.position == 7


def test_counting_cursor_never_moves_backwards():
    cursor = make_cursor()
    cursor.seek_pointer(5)
    cursor.seek_pointer(3)  # ignored
    assert cursor.position == 5
    assert cursor.counters.pointer_jumps == 1


def test_counting_cursor_exhaust_via_pointer():
    cursor = make_cursor(4)
    cursor.seek_pointer(99)
    assert cursor.exhausted
    assert len(cursor) == 4
