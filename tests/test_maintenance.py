"""Unit tests for the incremental view-maintenance subsystem."""

from __future__ import annotations

import json

import pytest

from repro.caching import LRUCache
from repro.errors import MaintenanceError, StorageError
from repro.maintenance import (
    DeleteSubtree,
    InsertSubtree,
    RenameTag,
    RepairAction,
    UpdateLog,
    WAL_FILENAME,
    apply_delta,
    apply_deltas,
    apply_updates,
    classify,
    delta_from_dict,
    delta_to_dict,
    recover_store,
    update_store,
)
from repro.maintenance.wal import _record_line
from repro.storage.catalog import Scheme, ViewCatalog, ViewInfo, materialize
from repro.storage.persistence import (
    commit_store,
    load_catalog,
    read_store_version,
    save_catalog,
)
from repro.tpq.parser import parse_pattern
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.writer import write_xml_file


def node(doc, tag, nth=0):
    return [n for n in doc.nodes if n.tag == tag][nth]


# -- delta vocabulary ----------------------------------------------------------


def test_insert_validates_rows():
    with pytest.raises(MaintenanceError):
        InsertSubtree(parent_start=0, position=0, rows=())
    with pytest.raises(MaintenanceError):
        InsertSubtree(parent_start=0, position=0,
                      rows=(("x", 1),))  # no depth-0 root
    with pytest.raises(MaintenanceError):
        InsertSubtree(parent_start=0, position=0,
                      rows=(("x", 0), ("y", 0)))  # two roots
    with pytest.raises(MaintenanceError):
        InsertSubtree(parent_start=0, position=-1, rows=(("x", 0),))
    with pytest.raises(MaintenanceError):
        InsertSubtree(parent_start=0, position=0, rows=(("<bad>", 0),))
    with pytest.raises(MaintenanceError):
        RenameTag(node_start=0, new_tag="")


def test_delta_wire_roundtrip():
    deltas = [
        InsertSubtree(parent_start=1, position=2,
                      rows=(("a", 0), ("b", 1))),
        DeleteSubtree(root_start=4),
        RenameTag(node_start=5, new_tag="c"),
    ]
    for delta in deltas:
        wire = json.loads(json.dumps(delta_to_dict(delta)))
        assert delta_from_dict(wire) == delta


def test_delta_wire_rejects_garbage():
    with pytest.raises(MaintenanceError):
        delta_from_dict({"kind": "truncate-table"})
    with pytest.raises(MaintenanceError):
        delta_from_dict({"kind": "delete-subtree"})  # missing root_start
    with pytest.raises(MaintenanceError):
        delta_from_dict({"kind": "insert-subtree", "parent_start": 0,
                         "position": 0, "rows": [["ok", 0], ["bad"]]})


# -- delta application ---------------------------------------------------------


def assert_valid_labels(doc):
    """Labels must stay a contiguous permutation of [0, 2n)."""
    labels = sorted(
        label for n in doc.nodes for label in (n.start, n.end)
    )
    assert labels == list(range(2 * len(doc.nodes)))
    for n in doc.nodes:
        if n.parent_index >= 0:
            parent = doc.nodes[n.parent_index]
            assert parent.start < n.start and n.end < parent.end
            assert n.level == parent.level + 1


def test_insert_append_and_prepend(small_doc):
    b = node(small_doc, "b")
    appended = apply_delta(
        small_doc,
        InsertSubtree(parent_start=b.start, position=2,
                      rows=(("x", 0), ("y", 1))),
    )
    assert_valid_labels(appended.document)
    nb = node(appended.document, "b")
    child_tags = [c.tag for c in appended.document.children(nb)]
    assert child_tags == ["c", "d", "x"]
    assert appended.touched_tags == frozenset({"x", "y"})
    assert appended.shift_amount == 4
    assert appended.shift_start == b.end  # labels >= old b.end move

    prepended = apply_delta(
        small_doc,
        InsertSubtree(parent_start=b.start, position=0, rows=(("x", 0),)),
    )
    assert_valid_labels(prepended.document)
    nb = node(prepended.document, "b")
    assert [c.tag for c in prepended.document.children(nb)] == \
        ["x", "c", "d"]
    # The inserted node takes the anchor's old start label.
    assert prepended.inserted == (("x", node(small_doc, "c").start,
                                  node(small_doc, "c").start + 1,
                                  b.level + 1),)


def test_insert_rejects_bad_targets(small_doc):
    with pytest.raises(MaintenanceError):
        apply_delta(small_doc, InsertSubtree(
            parent_start=999, position=0, rows=(("x", 0),)))
    b = node(small_doc, "b")
    with pytest.raises(MaintenanceError):
        apply_delta(small_doc, InsertSubtree(
            parent_start=b.start, position=3, rows=(("x", 0),)))


def test_delete_subtree(small_doc):
    d = node(small_doc, "d")
    applied = apply_delta(small_doc, DeleteSubtree(root_start=d.start))
    doc = applied.document
    assert_valid_labels(doc)
    assert len(doc.nodes) == len(small_doc.nodes) - 3
    assert applied.touched_tags == frozenset({"d", "e", "c2"})
    assert applied.deleted_range == (d.start, d.end)
    assert applied.shift_amount == -(d.end - d.start + 1)
    assert [n.tag for n in doc.nodes] == ["r", "a", "b", "c", "f", "g"]


def test_delete_root_forbidden(small_doc):
    with pytest.raises(MaintenanceError):
        apply_delta(small_doc, DeleteSubtree(root_start=0))


def test_rename(small_doc):
    f = node(small_doc, "f")
    applied = apply_delta(
        small_doc, RenameTag(node_start=f.start, new_tag="h"))
    assert_valid_labels(applied.document)
    assert applied.touched_tags == frozenset({"f", "h"})
    assert applied.shift_amount == 0
    assert node(applied.document, "h").start == f.start
    # Renaming to the same tag touches nothing.
    noop = apply_delta(small_doc, RenameTag(node_start=f.start, new_tag="f"))
    assert noop.touched_tags == frozenset()


def test_applied_document_roundtrips_xml(small_doc, tmp_path):
    doc, __ = apply_deltas(small_doc, [
        InsertSubtree(parent_start=node(small_doc, "a").start, position=1,
                      rows=(("w", 0), ("v", 1), ("v", 1))),
        DeleteSubtree(root_start=node(small_doc, "d").start),
    ])
    write_xml_file(doc, tmp_path / "t.xml")
    back = parse_xml_file(tmp_path / "t.xml")
    assert [(n.tag, n.start, n.end, n.level) for n in back.nodes] == \
        [(n.tag, n.start, n.end, n.level) for n in doc.nodes]


# -- update log ----------------------------------------------------------------


def test_wal_append_read_replay(tmp_path):
    log = UpdateLog(tmp_path / WAL_FILENAME)
    assert not log.exists() and log.tip() == 0
    tip = log.append([DeleteSubtree(root_start=3),
                      RenameTag(node_start=1, new_tag="z")])
    assert tip == 2
    tip = log.append([DeleteSubtree(root_start=9)])
    assert tip == 3
    # A fresh handle sees the same contiguous records.
    fresh = UpdateLog(tmp_path / WAL_FILENAME)
    assert fresh.tip() == 3
    assert [lsn for lsn, __ in fresh.replay()] == [1, 2, 3]
    tail = fresh.read(after=2)
    assert tail == [(3, DeleteSubtree(root_start=9))]


DELETE_OP = {"kind": "delete-subtree", "root_start": 1}
BARE_RECORD = '{"lsn":1,"op":{"kind":"delete-subtree","root_start":1}}\n'


def test_wal_rejects_corruption(tmp_path):
    path = tmp_path / WAL_FILENAME
    # Valid records whose LSNs skip 2.
    path.write_text(_record_line(1, DELETE_OP) + _record_line(3, {}))
    with pytest.raises(MaintenanceError):
        UpdateLog(path).tip()
    # An invalid record followed by a valid one is corruption, not a
    # torn tail — the log must refuse it.
    path.write_text("not json\n" + _record_line(1, DELETE_OP))
    with pytest.raises(MaintenanceError):
        UpdateLog(path).tip()


def test_wal_bare_json_line_is_an_invalid_record(tmp_path):
    path = tmp_path / WAL_FILENAME
    # No length prefix, no CRC: followed by a valid record it is corruption.
    path.write_text(BARE_RECORD + _record_line(2, DELETE_OP))
    with pytest.raises(MaintenanceError):
        UpdateLog(path).tip()
    # As the last line it is a torn tail, truncated by the next append.
    path.write_text(_record_line(1, DELETE_OP) + BARE_RECORD)
    log = UpdateLog(path)
    assert log.tip() == 1 and log.torn_tail_detected
    assert log.append([DeleteSubtree(root_start=3)]) == 2
    assert path.read_text() == (
        _record_line(1, DELETE_OP)
        + _record_line(2, {"kind": "delete-subtree", "root_start": 3})
    )


def test_wal_tolerates_torn_tail(tmp_path):
    path = tmp_path / WAL_FILENAME
    log = UpdateLog(path)
    log.append([DeleteSubtree(root_start=1), DeleteSubtree(root_start=2)])
    # Simulate a crash mid-append: a partial record at the end.
    with open(path, "ab") as handle:
        handle.write(b'999 {"crc":1,"lsn"')
    torn = UpdateLog(path)
    assert torn.tip() == 2
    assert torn.torn_tail_detected
    # The next append truncates the debris and extends cleanly.
    assert torn.append([DeleteSubtree(root_start=3)]) == 3
    fresh = UpdateLog(path)
    assert [lsn for lsn, __ in fresh.replay()] == [1, 2, 3]
    assert not fresh.torn_tail_detected


def count_record_parses(monkeypatch) -> list[str]:
    """Record every ``UpdateLog._parse_record`` call from here on."""
    parsed: list[str] = []
    original = UpdateLog._parse_record

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(UpdateLog, "_parse_record", staticmethod(counting))
    return parsed


def test_wal_long_lived_log_scans_once(tmp_path, monkeypatch):
    """One log object appends without re-reading its own history."""
    path = tmp_path / WAL_FILENAME
    UpdateLog(path).append([DeleteSubtree(root_start=n) for n in range(5)])
    parsed = count_record_parses(monkeypatch)
    log = UpdateLog(path)
    for n in range(50):
        assert log.append([DeleteSubtree(root_start=n)]) == 6 + n
    assert len(parsed) == 5  # the first append's scan, nothing after
    assert [lsn for lsn, __ in UpdateLog(path).replay()] == list(range(1, 56))


def test_wal_long_lived_log_sees_another_writer(tmp_path, monkeypatch):
    """Records appended through another handle (``viewjoin update``
    beside a running service) change the file's length, which forces
    the rescan: LSNs stay contiguous."""
    path = tmp_path / WAL_FILENAME
    log = UpdateLog(path)
    assert log.append([DeleteSubtree(root_start=1)]) == 1
    assert UpdateLog(path).append([DeleteSubtree(root_start=2)]) == 2
    parsed = count_record_parses(monkeypatch)
    assert log.append([DeleteSubtree(root_start=3)]) == 3
    assert len(parsed) == 2
    assert log.append([DeleteSubtree(root_start=4)]) == 4
    assert len(parsed) == 2  # trusted again once the lengths agree
    assert [lsn for lsn, __ in UpdateLog(path).replay()] == [1, 2, 3, 4]


def test_wal_long_lived_log_truncates_a_tail_torn_behind_its_back(tmp_path):
    path = tmp_path / WAL_FILENAME
    log = UpdateLog(path)
    log.append([DeleteSubtree(root_start=1), DeleteSubtree(root_start=2)])
    with open(path, "ab") as handle:
        handle.write(b'999 {"crc":1,"lsn"')
    assert log.append([DeleteSubtree(root_start=3)]) == 3
    fresh = UpdateLog(path)
    assert [lsn for lsn, __ in fresh.replay()] == [1, 2, 3]
    assert not fresh.torn_tail_detected


@pytest.mark.parametrize("kind", ["torn", "garble"])
def test_wal_long_lived_log_rescans_after_an_injected_fault(tmp_path, kind):
    """A faulted append leaves bytes the log never verified; the same
    object's next append must find and drop them, not build on them."""
    from repro.errors import FaultInjected
    from repro.resilience import FaultPlan, faults

    path = tmp_path / WAL_FILENAME
    log = UpdateLog(path)
    log.append([DeleteSubtree(root_start=1)])
    faults.install(FaultPlan.parse(f"seed=1;wal-append={kind}:1.0"))
    try:
        if kind == "torn":
            with pytest.raises(FaultInjected):
                log.append([DeleteSubtree(root_start=2)])
        else:
            log.append([DeleteSubtree(root_start=2)])
    finally:
        faults.uninstall()
    assert log.append([DeleteSubtree(root_start=3)]) == 2
    fresh = UpdateLog(path)
    assert fresh.read() == [
        (1, DeleteSubtree(root_start=1)), (2, DeleteSubtree(root_start=3)),
    ]
    assert not fresh.torn_tail_detected


# -- repair classification -----------------------------------------------------


def classify_for(doc, xpath, deltas, scheme="LE", derived=False):
    info = ViewInfo(
        parse_pattern(xpath), Scheme.parse(scheme),
        materialize(doc, parse_pattern(xpath), scheme), derived=derived,
    )
    __, changes = apply_deltas(doc, deltas)
    return classify(info, changes)


def test_classify_disjoint_is_shift(small_doc):
    b = node(small_doc, "b")
    decision = classify_for(small_doc, "//a//f", [
        InsertSubtree(parent_start=b.start, position=0, rows=(("x", 0),)),
    ])
    assert decision.action is RepairAction.SHIFT
    assert len(decision.ops) == 1


def test_classify_rename_disjoint_is_noop(small_doc):
    decision = classify_for(small_doc, "//a//f", [
        RenameTag(node_start=node(small_doc, "c").start, new_tag="c9"),
    ])
    assert decision.action is RepairAction.NOOP


def test_classify_single_node_touched_is_rebuild(small_doc):
    # A one-node view's solution list is its tag's index in the new
    # document, so a touched one-node view rebuilds like any other.
    decision = classify_for(small_doc, "//c", [
        InsertSubtree(parent_start=node(small_doc, "g").start, position=0,
                      rows=(("c", 0),)),
        DeleteSubtree(root_start=node(small_doc, "d").start),  # kills c2
    ])
    assert decision.action is RepairAction.REBUILD
    assert decision.ops == ()


def test_classify_twig_touched_is_rebuild(small_doc):
    decision = classify_for(small_doc, "//b//c", [
        InsertSubtree(parent_start=node(small_doc, "f").start, position=0,
                      rows=(("c", 0),)),
    ])
    assert decision.action is RepairAction.REBUILD


def test_classify_derived_touched_is_drop(small_doc):
    decision = classify_for(small_doc, "//b//c", [
        DeleteSubtree(root_start=node(small_doc, "c").start),
    ], derived=True)
    assert decision.action is RepairAction.DROP


# -- in-memory commits ---------------------------------------------------------


def build_catalog(doc, patterns, schemes=("T", "E", "LE", "LEp")):
    catalog = ViewCatalog(doc)
    for xpath, name in patterns:
        for scheme in schemes:
            catalog.add(parse_pattern(xpath, name=name), scheme)
    return catalog


PATTERNS = [("//b//c", "twig"), ("//c", "single"), ("//a//f", "other")]


def fingerprint(catalog):
    rows = {}
    for (name, scheme), info in catalog.entries():
        view = info.view
        lists = {"": view.tuples} if hasattr(view, "tuples") else view.lists
        payload = []
        for tag, stored in sorted(lists.items()):
            manifest = stored.manifest()
            ids = (manifest["page_ids"] if "page_ids" in manifest
                   else [row[2] for row in manifest["directory"]])
            payload.append((tag, len(stored), tuple(
                catalog.pager.page_file.read_page_raw(i) for i in ids
            )))
        rows[(name, scheme.value)] = (tuple(payload), info.num_pointers)
    return rows


def test_commit_matches_rebuild_and_invalidates(small_doc):
    catalog = build_catalog(small_doc, PATTERNS)
    version, epoch = catalog.version, catalog.maintenance_epoch
    deltas = [
        InsertSubtree(parent_start=node(small_doc, "g").start, position=0,
                      rows=(("c", 0), ("q", 1))),
        DeleteSubtree(root_start=node(small_doc, "d").start),
    ]
    report = apply_updates(catalog, deltas)
    assert report.deltas == 2
    assert report.nodes_inserted == 2 and report.nodes_deleted == 3
    assert catalog.version == version + 1
    assert catalog.maintenance_epoch == epoch + 1

    reference = build_catalog(catalog.document, PATTERNS)
    assert fingerprint(catalog) == fingerprint(reference)
    # The repair path actually avoided rebuilds where it could.
    actions = report.action_counts()
    assert set(actions) <= {"noop", "shift", "rebuild"}
    assert actions.get("shift") and actions.get("rebuild")


def test_empty_commit_is_noop(small_doc):
    catalog = build_catalog(small_doc, PATTERNS)
    version = catalog.version
    report = apply_updates(catalog, [])
    assert report.deltas == 0 and catalog.version == version


def test_force_rebuild_matches_incremental(small_doc):
    incremental = build_catalog(small_doc, PATTERNS)
    forced = build_catalog(small_doc, PATTERNS)
    deltas = [RenameTag(node_start=node(small_doc, "e").start,
                        new_tag="c")]
    apply_updates(incremental, deltas)
    report = apply_updates(forced, deltas, force_rebuild=True)
    assert report.action_counts() == {"rebuild": len(PATTERNS) * 4}
    assert fingerprint(incremental) == fingerprint(forced)


def test_derived_view_dropped(small_doc):
    catalog = ViewCatalog(small_doc)
    query = parse_pattern("//b//c", name="res")
    matches = [
        (node(small_doc, "b"), node(small_doc, "c")),
        (node(small_doc, "b"), node(small_doc, "c2")),
    ]
    catalog.add_result_view(query, matches, "LE")
    apply_updates(catalog, [
        DeleteSubtree(root_start=node(small_doc, "c").start)
    ])
    assert catalog.views() == []


def test_derived_view_survives_disjoint_shift(small_doc):
    catalog = ViewCatalog(small_doc)
    query = parse_pattern("//b//c", name="res")
    matches = [(node(small_doc, "b"), node(small_doc, "c"))]
    catalog.add_result_view(query, matches, "LE")
    apply_updates(catalog, [
        InsertSubtree(parent_start=node(small_doc, "g").start, position=0,
                      rows=(("x", 0),)),
    ])
    info = catalog.views()[0]
    assert info.derived
    entries = list(info.view.lists["c"].scan())
    assert len(entries) == 1


# -- durable store commits -----------------------------------------------------


@pytest.fixture
def store(small_doc, tmp_path):
    catalog = build_catalog(small_doc, PATTERNS, schemes=("LE", "LEp"))
    target = tmp_path / "store"
    save_catalog(catalog, target)
    catalog.close()
    return target


def test_update_store_and_reload(store, small_doc):
    assert read_store_version(store) == (1, 0)
    report = update_store(store, [
        DeleteSubtree(root_start=node(small_doc, "d").start),
    ])
    assert report.deltas == 1
    assert read_store_version(store) == (2, 1)

    with load_catalog(store) as catalog:
        assert catalog.store_version == 2
        reference = build_catalog(
            catalog.document, PATTERNS, schemes=("LE", "LEp"))
        assert fingerprint(catalog) == fingerprint(reference)


def test_recover_store_replays_pending_tail(store, small_doc):
    log = UpdateLog(store / WAL_FILENAME)
    log.append([DeleteSubtree(root_start=node(small_doc, "d").start)])
    assert recover_store(store) == 1
    assert recover_store(store) == 0  # idempotent
    assert read_store_version(store) == (2, 1)
    with load_catalog(store) as catalog:
        assert all(n.tag != "d" for n in catalog.document.nodes)


def test_save_catalog_refuses_live_store(store):
    with load_catalog(store) as catalog:
        with pytest.raises(StorageError):
            save_catalog(catalog, store)


def test_commit_store_requires_attachment(small_doc, tmp_path):
    catalog = build_catalog(small_doc, PATTERNS, schemes=("LE",))
    with pytest.raises(StorageError):
        commit_store(catalog, tmp_path / "nowhere")


# -- cache invalidation primitive ---------------------------------------------


def test_lru_invalidate_all_counts_evictions():
    cache = LRUCache(8)
    for i in range(5):
        cache.put(("q", i), i)
    dropped = cache.invalidate()
    assert dropped == 5 and len(cache) == 0
    assert cache.stats.evictions == 5
    assert cache.stats.invalidations == 1


def test_lru_invalidate_predicate():
    cache = LRUCache(8)
    for i in range(6):
        cache.put(("q", i), i)
    dropped = cache.invalidate(lambda key: key[1] % 2 == 0)
    assert dropped == 3 and len(cache) == 3
    assert cache.get(("q", 1)) == 1
    assert cache.get(("q", 2)) is None
    assert cache.stats.evictions == 3
