"""Persisting and reloading view catalogs.

A materialized-view store is only useful if it survives the process:
``save_catalog`` writes the document (as XML), one compacted page file
holding every view's pages, and a JSON manifest describing each view
(pattern, scheme, per-tag list metadata, pointer statistics);
``load_catalog`` reopens the store without re-materializing anything —
view pages are read lazily through the buffer pool on first use.

Store layout::

    <directory>/
      document.xml     the data tree (current generation)
      pages.bin        all views' pages, compacted
      manifest.json    catalog metadata (current generation)
      generations/     manifests+documents of past commits, hard
                       links to the files each commit replaced
                       (``storage/generations.py``; MVCC snapshots)

Crash atomicity: every file is written to a ``*.tmp`` sibling, fsynced,
and moved into place with ``os.replace`` — never written in place, which
is what lets the archive link instead of copy; the manifest (compact
JSON) goes last, so a crash at any injected fault point leaves the
previous store fully readable.  The residual window *between* the
individual replaces (new ``pages.bin``, old ``manifest.json``) is
outside the injected fault model — and harmless anyway, because the
manifest's ``page_checksums`` no longer match and verification reports
the store corrupt instead of serving stale pages as current.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.errors import StorageError
from repro.resilience import faults
from repro.resilience.guard import checksum_map, page_checksum, read_manifest
from repro.resilience.guard import verify_store as _verify_store
from repro.storage.catalog import Scheme, ViewCatalog, ViewInfo
from repro.storage.generations import (
    archive_current_generation,
    clear_generations,
    generation_document_path,
    load_generation_manifest,
)
from repro.storage.element import ElementView
from repro.storage.linked import LinkedElementView, PointerStats
from repro.storage.lists import SlottedList, StoredList
from repro.storage.pager import Pager
from repro.storage.records import (
    compact_linked_codec,
    element_codec,
    linked_codec,
    tuple_codec,
)
from repro.storage.tuples import TupleView
from repro.tpq.parser import parse_pattern
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.writer import write_xml_file

_FORMAT_VERSION = 1


def read_store_version(
    directory: str | os.PathLike,
) -> tuple[int, int]:
    """``(store_version, wal_lsn)`` from a store's manifest on disk.

    Returns ``(0, 0)`` when the directory has no manifest.  Manifests
    written before these fields existed read as ``(1, 0)``.  Workers use
    the version to detect stores rewritten underneath a live attachment;
    recovery uses the LSN to find unapplied update-log records.
    """
    manifest_path = pathlib.Path(directory) / "manifest.json"
    if not manifest_path.exists():
        return 0, 0
    manifest = read_manifest(directory)
    return (
        int(manifest.get("store_version", 1)),
        int(manifest.get("wal_lsn", 0)),
    )


def _write_manifest(target: pathlib.Path, manifest: dict) -> None:
    """Atomically replace ``manifest.json`` (tmp file + fsync + rename)."""
    tmp = target / "manifest.json.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, separators=(",", ":")))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target / "manifest.json")


def _fsync_file(path: pathlib.Path) -> None:
    with open(path, "rb+") as handle:
        os.fsync(handle.fileno())


def _crash_point(site: str) -> None:
    state = faults.STATE
    if state is not None:
        state.crash_point(site)


def save_catalog(catalog: ViewCatalog, directory: str | os.PathLike) -> None:
    """Write the catalog (document + views + pages) to ``directory``.

    This is the snapshot/export path: pages are *copied* into a freshly
    truncated ``pages.bin``.  It therefore must never target the store the
    catalog is currently attached to — truncating the backing file of a
    live pager would destroy the pages mid-copy.  Use
    :func:`commit_store` for in-place maintenance commits.
    """
    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    live = catalog.pager.page_file.path
    pages = target / "pages.bin"
    if (
        live is not None
        and pages.exists()
        and os.path.exists(live)
        and os.path.samefile(live, pages)
    ):
        raise StorageError(
            f"refusing to save the catalog onto its own attached store"
            f" {target}; use commit_store for in-place commits"
        )
    old_version, old_lsn = read_store_version(target)
    tmp_doc = target / "document.xml.tmp"
    write_xml_file(catalog.document, tmp_doc)
    _fsync_file(tmp_doc)

    tmp_pages = target / "pages.bin.tmp"
    out_pager = Pager(tmp_pages, page_size=catalog.pager.page_size)
    try:
        views = []
        checksums: dict[int, int] = {}
        for info in catalog.views():
            views.append(
                _save_view(info, catalog.pager, out_pager, checksums)
            )
        out_pager.flush()
    finally:
        out_pager.page_file.close()
    # Everything below moves fsynced temp files into place; a crash up
    # to here (the injected store-write fault) leaves only *.tmp debris
    # next to a fully intact previous store.
    _crash_point("store-write")
    os.replace(tmp_doc, target / "document.xml")
    os.replace(tmp_pages, pages)
    # A snapshot save truncates pages.bin, so any archived generation
    # manifests would point at pages that no longer exist: the chain
    # restarts here.
    clear_generations(target)
    manifest = {
        "format": _FORMAT_VERSION,
        "page_size": catalog.pager.page_size,
        "partial_distance": catalog.partial_distance,
        "document": catalog.document.name,
        # A freshly saved snapshot is current by construction: any
        # update-log records already in the directory are reflected.
        "store_version": old_version + 1,
        "generation": old_version + 1,
        "wal_lsn": _wal_tip(target, old_lsn),
        "page_checksums": {
            str(page_id): crc for page_id, crc in sorted(checksums.items())
        },
        "views": views,
    }
    _write_manifest(target, manifest)


def _wal_tip(target: pathlib.Path, fallback: int) -> int:
    wal_path = target / "wal.jsonl"
    if not wal_path.exists():
        return fallback
    from repro.maintenance.wal import UpdateLog

    return UpdateLog(wal_path).tip()


def commit_store(
    catalog: ViewCatalog,
    directory: str | os.PathLike,
    wal_lsn: int | None = None,
) -> int:
    """Commit an attached catalog's current state back to its own store.

    The maintenance counterpart of :func:`save_catalog`: repaired view
    pages were already appended (copy-on-write) to the store's own
    ``pages.bin``, so nothing is copied — the page file is flushed, the
    new document is written to a temp file, the outgoing generation's
    manifest+document are hard-linked under ``generations/`` (so pinned
    readers can still attach them), then ``document.xml`` and
    ``manifest.json`` are atomically replaced.  The
    manifest gets a bumped ``store_version`` (== its generation number)
    and, when given, the new ``wal_lsn`` high-water mark.  Returns the
    new store version.
    """
    target = pathlib.Path(directory)
    live = catalog.pager.page_file.path
    pages = target / "pages.bin"
    if live is None or not pages.exists() or not os.path.samefile(live, pages):
        raise StorageError(
            f"catalog is not attached to the store at {target};"
            " commit_store only performs in-place commits"
        )
    old_version, old_lsn = read_store_version(target)
    catalog.pager.flush()

    tmp_doc = target / "document.xml.tmp"
    write_xml_file(catalog.document, tmp_doc)
    _fsync_file(tmp_doc)

    views = [_view_record(info) for info in catalog.views()]
    checksums = _store_checksums(catalog, views)
    # Archive the outgoing generation before anything is replaced: the
    # links are additive and idempotent, so a crash mid-archive leaves the
    # previous store fully intact (plus at worst an orphan archive link).
    archive_current_generation(target)
    # A crash up to here (the injected store-write fault) loses nothing:
    # repaired pages were appended copy-on-write, so the old manifest
    # still points at the old pages and the already-fsynced update log
    # replays the delta on the next recover_store.
    _crash_point("store-write")
    os.replace(tmp_doc, target / "document.xml")

    manifest = {
        "format": _FORMAT_VERSION,
        "page_size": catalog.pager.page_size,
        "partial_distance": catalog.partial_distance,
        "document": catalog.document.name,
        "store_version": old_version + 1,
        "generation": old_version + 1,
        "wal_lsn": old_lsn if wal_lsn is None else wal_lsn,
        "page_checksums": {
            str(page_id): crc for page_id, crc in sorted(checksums.items())
        },
        "views": views,
    }
    _write_manifest(target, manifest)
    catalog.store_version = old_version + 1
    catalog.generation = old_version + 1
    catalog.pager.page_file.expected_crc = dict(checksums)
    return catalog.store_version


def _store_checksums(catalog: ViewCatalog, views: list[dict]) -> dict[int, int]:  # repro-lint: disable=RL203 (commit-time checksum pass, not measured evaluation I/O)
    """CRC32s for every page the view records reference.  A page still
    in ``expected_crc`` (one this commit did not write) keeps its
    recorded CRC, so at-rest corruption stays detectable; only pages
    written since are CRC'd, from the flushed bytes (commit-time
    bookkeeping, not measured evaluation I/O — hence the raw read)."""
    from repro.resilience.guard import manifest_view_pages

    page_file = catalog.pager.page_file
    recorded = page_file.expected_crc
    return {
        page_id: recorded[page_id] if page_id in recorded
        else page_checksum(page_file.read_page_raw(page_id))
        for page_ids in manifest_view_pages({"views": views}).values()
        for page_id in page_ids
    }


def _copy_pages(
    source: Pager, target: Pager, page_ids, checksums: dict[int, int]
) -> list[int]:
    new_ids = []
    for page_id in page_ids:
        data = source.page_file.read_page(page_id)
        new_id = target.page_file.allocate()
        target.page_file.write_page(new_id, data)
        checksums[new_id] = page_checksum(data)
        new_ids.append(new_id)
    return new_ids


def _view_record(info: ViewInfo) -> dict:
    """Manifest record for one view, page ids as currently allocated.

    Used directly by :func:`commit_store` (repaired pages already live in
    the store's own page file); :func:`_save_view` additionally remaps the
    page ids while copying pages into the snapshot target.
    """
    view = info.view
    record: dict = {
        "name": info.pattern.name,
        "xpath": info.pattern.to_xpath(),
        "scheme": info.scheme.value,
    }
    if info.derived:
        record["derived"] = True
    if isinstance(view, TupleView):
        record["tuples"] = view.tuples.manifest()
        return record
    record["lists"] = {
        tag: stored.manifest() for tag, stored in view.lists.items()
    }
    if isinstance(view, LinkedElementView):
        record["pointer_stats"] = view.pointer_stats.as_dict()
        record["partial_distance"] = view.partial_distance
    return record


def _save_view(
    info: ViewInfo, source: Pager, target: Pager, checksums: dict[int, int]
) -> dict:
    record = _view_record(info)
    if "tuples" in record:
        manifest = record["tuples"]
        manifest["page_ids"] = _copy_pages(
            source, target, manifest["page_ids"], checksums
        )
        return record
    for manifest in record["lists"].values():
        if "page_ids" in manifest:
            manifest["page_ids"] = _copy_pages(
                source, target, manifest["page_ids"], checksums
            )
        else:
            old_rows = [tuple(row) for row in manifest["directory"]]
            new_ids = _copy_pages(
                source, target, [row[2] for row in old_rows], checksums
            )
            manifest["directory"] = [
                [first, count, new_id]
                for (first, count, __), new_id in zip(old_rows, new_ids)
            ]
    return record


def load_catalog(
    directory: str | os.PathLike,
    pool_capacity: int = 64,
    verify: bool = False,
    generation: int | None = None,
) -> ViewCatalog:
    """Reopen a saved catalog; view pages load lazily on access.

    The manifest's ``page_checksums`` are attached to the pager, so
    every later physical read is verified against them regardless of
    ``verify``.  With ``verify=True`` the whole store (pages and update
    log) is additionally checked up front, refusing a damaged store
    with a typed :class:`~repro.errors.StoreCorrupt` before any query
    can observe it.

    ``generation`` pins the attachment to a specific published
    generation (MVCC snapshot read, DESIGN.md §16): when it differs
    from the current manifest's, the archived manifest+document under
    ``generations/`` are attached against the shared append-only page
    file.  A reaped or never-published generation raises a typed
    :class:`~repro.errors.StorageError`.  This is the *pin point* the
    RL206 snapshot-discipline lint rule recognizes — read-path code
    must reach the store through it, never by re-reading the mutable
    current manifest.
    """
    source = pathlib.Path(directory)
    manifest = read_manifest(source)
    current_generation = int(
        manifest.get("generation", manifest.get("store_version", 1))
    )
    doc_path = source / "document.xml"
    if generation is not None and generation != current_generation:
        manifest = load_generation_manifest(source, generation)
        doc_path = generation_document_path(source, generation)
        verify = False  # whole-store verification covers current only
    if manifest.get("format") != _FORMAT_VERSION:
        raise StorageError(
            f"unsupported catalog format {manifest.get('format')!r}"
        )
    if verify:
        _verify_store(source).raise_if_bad()
    document = parse_xml_file(doc_path)
    document.name = manifest.get("document", document.name)
    pager = Pager(
        source / "pages.bin",
        page_size=manifest["page_size"],
        pool_capacity=pool_capacity,
        create=False,  # reopen, never truncate
    )
    pager.page_file.expected_crc = checksum_map(manifest)
    catalog = ViewCatalog(
        document, pager=pager,
        partial_distance=manifest.get("partial_distance", 1),
    )
    catalog.store_version = int(manifest.get("store_version", 1))
    catalog.generation = int(
        manifest.get("generation", catalog.store_version)
    )
    for record in manifest["views"]:
        info = _load_view(record, document, pager)
        key = (info.pattern.name or info.pattern.to_xpath(), info.scheme)
        catalog._views[key] = info
        catalog.version += 1
    return catalog


def _load_view(record: dict, document, pager: Pager) -> ViewInfo:
    pattern = parse_pattern(record["xpath"], name=record.get("name"))
    scheme = Scheme.parse(record["scheme"])
    derived = bool(record.get("derived", False))
    if scheme is Scheme.TUPLE:
        view = TupleView.__new__(TupleView)
        view.pattern = pattern
        view.pager = pager
        view.tags = pattern.tags()
        view.tuples = StoredList.attach(
            pager, tuple_codec(len(view.tags)), record["tuples"],
            name=pattern.to_xpath(),
        )
        return ViewInfo(pattern, scheme, view, derived=derived)
    if scheme is Scheme.ELEMENT:
        view = ElementView.__new__(ElementView)
        view.pattern = pattern
        view.pager = pager
        view.lists = {
            tag: StoredList.attach(
                pager, element_codec(), manifest, name=tag
            )
            for tag, manifest in record["lists"].items()
        }
        return ViewInfo(pattern, scheme, view, derived=derived)

    partial = scheme is Scheme.LINKED_PARTIAL
    view = LinkedElementView.__new__(LinkedElementView)
    view.pattern = pattern
    view.pager = pager
    view.partial = partial
    view.partial_distance = record.get("partial_distance", 1)
    stats = record.get("pointer_stats", {})
    view.pointer_stats = PointerStats(
        child=stats.get("child", 0),
        descendant=stats.get("descendant", 0),
        following=stats.get("following", 0),
    )
    view.child_tag_order = {
        qnode.tag: [child.tag for child in qnode.children]
        for qnode in pattern.nodes
    }
    view.lists = {}
    for tag, manifest in record["lists"].items():
        children = len(view.child_tag_order[tag])
        if partial:
            view.lists[tag] = SlottedList.attach(
                pager, compact_linked_codec(children), manifest, name=tag
            )
        else:
            view.lists[tag] = StoredList.attach(
                pager, linked_codec(children), manifest, name=tag
            )
    return ViewInfo(pattern, scheme, view, derived=derived)
