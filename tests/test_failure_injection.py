"""Failure-injection tests: corrupted storage, bad pointers, broken inputs.

The storage layer must fail loudly (typed errors), never silently return
wrong data, when the backing store misbehaves.
"""

from __future__ import annotations

import struct

import pytest

from repro.errors import (
    FaultInjected,
    PagerError,
    ReproError,
    StorageError,
    StoreCorrupt,
)
from repro.maintenance import RenameTag, UpdateLog, WAL_FILENAME
from repro.resilience import FaultPlan, faults, verify_store
from repro.resilience.guard import read_manifest
from repro.storage.catalog import ViewCatalog, materialize
from repro.storage.lists import StoredList
from repro.storage.pager import PageFile, Pager
from repro.storage.persistence import load_catalog, save_catalog
from repro.storage.records import ElementEntry, element_codec
from repro.tpq.parser import parse_pattern
from tests.rowwise_reference import PoolServedList


def test_truncated_page_file_detected(tmp_path):
    path = tmp_path / "pages.bin"
    pf = PageFile(path, page_size=64)
    pid = pf.allocate()
    pf.write_page(pid, b"payload")
    # Simulate out-of-range access after external truncation of metadata.
    with pytest.raises(PagerError):
        pf.read_page(pid + 1)
    pf.close()


def test_corrupted_page_decodes_to_garbage_not_crash(small_doc):
    """Bit-flips inside a page produce wrong labels, not exceptions, for a
    reader that decodes the page (the pool-served reference reader) —
    and the validation layer above (document construction) rejects them."""
    pager = Pager(page_size=64)
    stored = StoredList(pager, element_codec(), name="t")
    stored.append(ElementEntry(1, 2, 0))
    stored.finalize()
    page_id, __ = stored.page_of(0)
    pager.page_file.write_page(page_id, b"\xff" * 12)
    pager.pool.clear()
    entry = PoolServedList(stored).read(0)
    assert entry.start == 0xFFFFFFFF  # garbage is visible, not masked


def test_columnar_reads_serve_finalize_time_snapshot():
    """A list's columns are its records and its pages their serialization
    (pages are decoded only on attach); page corruption after finalize is
    invisible to columnar reads."""
    pager = Pager(page_size=64)
    stored = StoredList(pager, element_codec(), name="t")
    stored.append(ElementEntry(1, 2, 0))
    stored.finalize()
    page_id, __ = stored.page_of(0)
    pager.page_file.write_page(page_id, b"\xff" * 12)
    pager.pool.clear()
    assert stored.read(0) == ElementEntry(1, 2, 0)


def test_cursor_misuse_detected():
    pager = Pager(page_size=64)
    stored = StoredList(pager, element_codec(), name="t")
    stored.append(ElementEntry(1, 2, 0))
    stored.finalize()
    cursor = stored.cursor()
    with pytest.raises(StorageError):
        cursor.seek(-3)
    with pytest.raises(StorageError):
        cursor.peek(99)


def test_unfinalized_scan_rejected():
    pager = Pager(page_size=64)
    stored = StoredList(pager, element_codec(), name="t")
    stored.append(ElementEntry(1, 2, 0))
    with pytest.raises(StorageError):
        list(stored.scan())


def test_all_library_errors_share_base():
    for exc in (PagerError, StorageError):
        assert issubclass(exc, ReproError)


def test_materialize_unknown_scheme(small_doc):
    with pytest.raises(StorageError):
        materialize(small_doc, parse_pattern("//a"), "parquet")


def test_closed_pager_reads_fail(small_doc):
    pager = Pager(file_backed=True)
    view = materialize(small_doc, parse_pattern("//a"), "E", pager=pager)
    pager.close()
    pager.pool.clear()
    with pytest.raises(Exception):
        list(view.list_for("a").scan())


# -- checksum detection, one test per corruption class -------------------------


@pytest.fixture()
def stored_catalog(small_doc, tmp_path):
    """A saved single-view store whose manifest carries page checksums."""
    with ViewCatalog(small_doc) as catalog:
        catalog.add(parse_pattern("//a", name="va"), "LE")
        save_catalog(catalog, tmp_path / "store")
    return tmp_path / "store"


def test_checksum_catches_at_rest_bit_flip(stored_catalog):
    """Class 1: silent media corruption — a flipped byte on disk."""
    pages = stored_catalog / "pages.bin"
    blob = bytearray(pages.read_bytes())
    blob[3] ^= 0x01
    pages.write_bytes(bytes(blob))
    catalog = load_catalog(stored_catalog)
    try:
        with pytest.raises(StoreCorrupt) as info:
            catalog.pager.page_file.read_page(0)
        assert 0 in info.value.pages
    finally:
        catalog.close()


@pytest.mark.parametrize("slot", [0xFFFF, "record-overruns", 0],
                         ids=["past-page", "record-overruns", "in-header"])
def test_corrupt_slot_offset_fails_typed_at_attach(small_doc, tmp_path, slot):
    """A flipped slot-offset word of an LE_p page — pointing past the page,
    at a record that would run off its end, or into the slot directory —
    refuses the attach with a StoreCorrupt naming the page (it used to
    escape as a bare ``struct.error``), without an up-front CRC pass."""
    store = tmp_path / "store"
    with ViewCatalog(small_doc) as catalog:
        catalog.add(parse_pattern("//a//b", name="vab"), "LEp")
        save_catalog(catalog, store)
    manifest = read_manifest(store)
    page_size = manifest["page_size"]
    __, __, page_id = manifest["views"][0]["lists"]["a"]["directory"][0]
    if slot == "record-overruns":
        slot = page_size - 3
    pages = store / "pages.bin"
    blob = bytearray(pages.read_bytes())
    struct.pack_into("<H", blob, page_id * page_size + 2, slot)
    pages.write_bytes(bytes(blob))
    with pytest.raises(StoreCorrupt) as info:
        load_catalog(store)
    assert info.value.pages == (page_id,)


@pytest.mark.parametrize("kind", ["corrupt", "short"])
def test_checksum_catches_injected_read_damage(stored_catalog, kind):
    """Classes 2+3: damage on the read path (bit flips, short reads)."""
    catalog = load_catalog(stored_catalog)
    faults.install(FaultPlan.parse(f"seed=1;page-read={kind}:1.0"))
    try:
        with pytest.raises(StoreCorrupt):
            catalog.pager.page_file.read_page(0)
    finally:
        faults.uninstall()
        catalog.close()


def test_torn_store_write_leaves_old_store_intact(small_doc, tmp_path):
    """Class 4: a crash mid-save.  Every file lands via tmp + rename with
    the manifest last, so the previous store generation stays whole."""
    target = tmp_path / "store"
    with ViewCatalog(small_doc) as catalog:
        catalog.add(parse_pattern("//a", name="va"), "LE")
        save_catalog(catalog, target)
    assert verify_store(target).ok
    with ViewCatalog(small_doc) as catalog:
        catalog.add(parse_pattern("//a", name="va"), "LE")
        catalog.add(parse_pattern("//b", name="vb"), "LE")
        faults.install(FaultPlan.parse("seed=1;store-write=torn:1.0"))
        try:
            with pytest.raises(FaultInjected):
                save_catalog(catalog, target)
        finally:
            faults.uninstall()
    assert verify_store(target).ok
    reloaded = load_catalog(target, verify=True)
    try:
        assert [v.pattern.name for v in reloaded.views()] == ["va"]
    finally:
        reloaded.close()


def test_wal_torn_append_fault_recovers(tmp_path):
    """Class 5: a torn WAL append.  The partial record is detected as a
    torn tail, earlier records survive, and the next append truncates
    the debris before extending the log."""
    log = UpdateLog(tmp_path / "wal.jsonl")
    log.append([RenameTag(node_start=0, new_tag="x")])
    faults.install(FaultPlan.parse("seed=1;wal-append=torn:1.0"))
    try:
        with pytest.raises(FaultInjected):
            log.append([RenameTag(node_start=0, new_tag="y")])
    finally:
        faults.uninstall()
    fresh = UpdateLog(tmp_path / "wal.jsonl")
    assert fresh.tip() == 1
    assert fresh.torn_tail_detected
    fresh.append([RenameTag(node_start=0, new_tag="y")])
    assert [lsn for lsn, __ in fresh.replay()] == [1, 2]
    assert not fresh.torn_tail_detected


def test_wal_garbled_append_is_detected_not_served(tmp_path):
    """Class 6: bit rot inside an appended record.  The CRC refuses the
    record; since nothing follows it, readers stop at the last valid
    LSN instead of replaying garbage."""
    log = UpdateLog(tmp_path / "wal.jsonl")
    log.append([RenameTag(node_start=0, new_tag="x")])
    faults.install(FaultPlan.parse("seed=1;wal-append=garble:1.0"))
    try:
        log.append([RenameTag(node_start=0, new_tag="y")])
    finally:
        faults.uninstall()
    fresh = UpdateLog(tmp_path / "wal.jsonl")
    assert fresh.tip() == 1
    assert fresh.torn_tail_detected


def test_verify_store_reports_wal_corruption(stored_catalog):
    """A garbled record *followed by valid ones* is genuine corruption;
    verify_store folds the typed WAL failure into its report."""
    wal_path = stored_catalog / WAL_FILENAME
    log = UpdateLog(wal_path)
    log.append([RenameTag(node_start=0, new_tag="x")])
    log.append([RenameTag(node_start=0, new_tag="y")])
    lines = wal_path.read_bytes().split(b"\n")
    first = bytearray(lines[0])
    first[len(first) // 2] ^= 0x55
    wal_path.write_bytes(bytes(first) + b"\n" + b"\n".join(lines[1:]))
    report = verify_store(stored_catalog)
    assert not report.ok
    assert report.wal_error
