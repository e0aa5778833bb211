"""Pager / buffer pool unit tests."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PagerError
from repro.storage.pager import BufferPool, IOStats, PageFile, Pager


def test_allocate_and_roundtrip():
    pf = PageFile(page_size=128)
    pid = pf.allocate()
    pf.write_page(pid, b"hello")
    data = pf.read_page(pid)
    assert data[:5] == b"hello"
    assert len(data) == 128
    assert pf.num_pages == 1
    assert pf.size_bytes == 128


def test_page_bounds_checked():
    pf = PageFile(page_size=64)
    with pytest.raises(PagerError):
        pf.read_page(0)
    pid = pf.allocate()
    with pytest.raises(PagerError):
        pf.write_page(pid, b"x" * 65)
    with pytest.raises(PagerError):
        pf.read_page(pid + 1)


def test_invalid_page_size():
    with pytest.raises(PagerError):
        PageFile(page_size=0)


def test_file_backed_pages(tmp_path):
    path = tmp_path / "pages.bin"
    pf = PageFile(path, page_size=64)
    pid = pf.allocate()
    pf.write_page(pid, b"abc")
    pf.close()
    assert os.path.getsize(path) == 64


def test_buffer_pool_hit_miss_accounting():
    pf = PageFile(page_size=64)
    pid = pf.allocate()
    pf.write_page(pid, b"abc")
    pool = BufferPool(pf, capacity=2)
    decoded = pool.get(pid, 1, bytes.hex)
    assert decoded == pool.get(pid, 1, bytes.hex)
    assert pool.stats.logical_reads == 2
    assert pool.stats.physical_reads == 1


def test_buffer_pool_eviction_lru():
    pf = PageFile(page_size=64)
    pids = [pf.allocate() for _ in range(3)]
    for pid in pids:
        pf.write_page(pid, bytes([pid]))
    pool = BufferPool(pf, capacity=2)
    pool.get(pids[0], 1, bytes.hex)
    pool.get(pids[1], 1, bytes.hex)
    pool.get(pids[2], 1, bytes.hex)   # evicts pids[0]
    pool.get(pids[0], 1, bytes.hex)   # miss again
    assert pool.stats.physical_reads == 4


def test_buffer_pool_lru_touch_order():
    pf = PageFile(page_size=64)
    pids = [pf.allocate() for _ in range(3)]
    for pid in pids:
        pf.write_page(pid, bytes([pid]))
    pool = BufferPool(pf, capacity=2)
    pool.get(pids[0], 1, bytes.hex)
    pool.get(pids[1], 1, bytes.hex)
    pool.get(pids[0], 1, bytes.hex)   # touch 0: now 1 is LRU
    pool.get(pids[2], 1, bytes.hex)   # evicts 1
    pool.get(pids[0], 1, bytes.hex)   # hit
    assert pool.stats.physical_reads == 3


@pytest.mark.parametrize("capacity", [1, 2, 64])
@settings(deadline=None, max_examples=60)
@given(script=st.lists(
    st.tuples(
        st.integers(0, 5),      # page
        st.integers(1, 2),      # decoder id
        st.integers(1, 4),      # consecutive accesses
        st.booleans(),          # mirrored as one touch_run, or as touches
    ),
    max_size=80,
))
def test_touch_and_touch_run_mirror_get(capacity, script):
    """The accounting mirror, at its own layer: a sequence of ``get``
    calls on one pool and the same sequence as ``touch`` / ``touch_run``
    on another leave identical read counts, residency and LRU order —
    after every step, so an eviction never happens a step early or late."""
    def pool_over_six_pages():
        pf = PageFile(page_size=64)
        for _ in range(6):
            pf.write_page(pf.allocate(), b"x")
        return BufferPool(pf, capacity=capacity)

    def state(pool):
        return (
            pool.stats.logical_reads, pool.stats.physical_reads,
            pool.page_file.stats.physical_reads,
            list(pool._pages), pool._mru,
        )

    served, mirrored = pool_over_six_pages(), pool_over_six_pages()
    for page, decoder_id, count, as_run in script:
        for _ in range(count):
            served.get(page, decoder_id, bytes.hex)
        if as_run:
            mirrored.touch_run(page, decoder_id, count)
        else:
            for _ in range(count):
                mirrored.touch(page, decoder_id)
        assert state(mirrored) == state(served)


def test_buffer_pool_capacity_validation():
    pf = PageFile(page_size=64)
    with pytest.raises(PagerError):
        BufferPool(pf, capacity=0)


def test_iostats_merge_and_reset():
    a = IOStats(logical_reads=1, physical_reads=2, pages_written=3,
                read_seconds=0.5, write_seconds=0.25)
    b = IOStats(logical_reads=10, physical_reads=20, pages_written=30,
                read_seconds=1.0, write_seconds=0.75)
    a.merge(b)
    assert a.as_dict() == {
        "logical_reads": 11, "physical_reads": 22, "pages_written": 33,
        "io_ms": 2500.0,
    }
    assert a.io_seconds == 2.5
    a.reset()
    assert a.logical_reads == 0
    assert a.io_seconds == 0.0


def test_pager_tempfile_lifecycle():
    pager = Pager(file_backed=True)
    path = pager._temp_path
    assert path is not None and os.path.exists(path)
    pager.close()
    assert not os.path.exists(path)


def test_pager_total_stats():
    pager = Pager()
    pid = pager.page_file.allocate()
    pager.page_file.write_page(pid, b"abc")
    pager.pool.get(pid, 1, bytes.hex)
    total = pager.total_stats()
    assert total.logical_reads == 1
    assert total.pages_written == 1
    pager.reset_stats()
    assert pager.total_stats().logical_reads == 0
