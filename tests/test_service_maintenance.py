"""End-to-end invalidation tests for ``QueryService.apply_updates``.

The maintenance commit must leave no layer serving pre-commit state:
plan cache, DataGuide refutation, keyed result cache, the on-disk store,
and pooled worker processes that attached the store before the commit
(the stale-attachment regression of ``service/worker.py``).
"""

from __future__ import annotations

import pytest

from repro.datasets import random_trees
from repro.maintenance import DeleteSubtree, InsertSubtree
from repro.service import QueryService
from repro.service.worker import run_worker_jobs
from repro.storage.catalog import ViewCatalog
from repro.storage.persistence import read_store_version, save_catalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=250, max_depth=9, seed=12)


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m)
        for m in find_embeddings(doc, parse_pattern(query))
    )


def first(doc, tag, nth=0):
    return [n for n in doc.nodes if n.tag == tag][nth]


def test_apply_updates_in_memory_refreshes_every_layer(doc):
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog, result_cache_size=8) as svc:
            svc.register("//a//b")
            svc.register("//c")
            before = svc.evaluate("//a//b//c")
            assert before.match_keys  # the delete below must change them
            assert svc.evaluate("//a//b//c").cached
            generation = svc.planner.generation

            victim = first(doc, "c")
            report = svc.apply_updates([
                DeleteSubtree(root_start=victim.start)
            ])
            assert report.deltas == 1

            assert svc.planner.generation > generation
            after = svc.evaluate("//a//b//c")
            assert not after.cached
            assert after.match_keys == truth_keys(
                svc.catalog.document, "//a//b//c"
            )
            assert after.match_keys != before.match_keys


def test_apply_updates_refreshes_dataguide(doc):
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:
            svc.register("//a//b")
            assert svc.evaluate("//zzz").refuted
            root = doc.nodes[0]
            svc.apply_updates([
                InsertSubtree(parent_start=root.start, position=0,
                              rows=(("zzz", 0),)),
            ])
            outcome = svc.evaluate("//zzz")
            assert not outcome.refuted and outcome.match_count == 1


def test_deleting_last_instance_refutes_on_next_live_read(doc):
    """The derived guide drops a path with its last instance, so the
    next live read of a query over that path is refuted again."""
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:
            svc.register("//a//b")
            root = doc.nodes[0]
            svc.apply_updates([
                InsertSubtree(parent_start=root.start, position=0,
                              rows=(("zzz", 0), ("yyy", 1))),
            ])
            assert not svc.evaluate("//zzz//yyy").refuted
            zzz = first(svc.catalog.document, "zzz")
            svc.apply_updates([DeleteSubtree(root_start=zzz.start)])
            for query in ("//zzz//yyy", "//zzz", "//yyy"):
                outcome = svc.evaluate(query)
                assert outcome.refuted and outcome.match_count == 0


def test_apply_updates_commits_store_and_workers_reattach(doc, tmp_path):
    store = tmp_path / "store"
    with ViewCatalog(doc) as catalog:
        catalog.add(parse_pattern("//a//b", name="w1"), "LEp")
        catalog.add(parse_pattern("//c", name="w2"), "LEp")
        save_catalog(catalog, store)

    with QueryService.open(str(store), result_cache_size=4) as svc:
        baseline = svc.evaluate_parallel(
            ["//a//b", "//c"], workers=2, emit_matches=True
        )
        victim = first(svc.catalog.document, "c")
        svc.apply_updates([DeleteSubtree(root_start=victim.start)])
        assert read_store_version(store)[0] == 2
        assert svc.catalog.store_version == 2

        updated = svc.evaluate_parallel(
            ["//a//b", "//c"], workers=2, emit_matches=True
        )
        truth = truth_keys(svc.catalog.document, "//c")
        assert updated.outcomes[1].match_keys == truth
        assert updated.outcomes[1].match_keys != \
            baseline.outcomes[1].match_keys
        # Sequential answers agree with the parallel ones post-commit.
        assert svc.evaluate("//c").match_keys == truth


def test_commits_do_not_reparse_the_update_log(tmp_path, monkeypatch):
    """Regression: ``apply_updates`` made a fresh ``UpdateLog`` per call,
    so every commit re-read, re-parsed and re-CRCed the whole
    never-truncated ``wal.jsonl`` (19 900 record parses for these 200
    commits).  The service keeps one log; a commit parses O(1) records."""
    from repro.maintenance import RenameTag, UpdateLog, WAL_FILENAME
    from tests.test_maintenance import count_record_parses

    small = random_trees.generate(size=30, max_depth=5, seed=3)
    store = tmp_path / "store"
    with ViewCatalog(small) as catalog:
        catalog.add(parse_pattern("//a//b", name="w1"), "LEp")
        save_catalog(catalog, store)

    parsed = count_record_parses(monkeypatch)
    with QueryService.open(str(store)) as svc:
        target = first(svc.catalog.document, "f")
        for commit in range(200):
            svc.apply_updates([
                RenameTag(node_start=target.start, new_tag="fe"[commit % 2])
            ])
        assert len(parsed) <= 200
        assert svc.evaluate("//a//b").match_keys == truth_keys(
            svc.catalog.document, "//a//b"
        )
    monkeypatch.undo()
    log = UpdateLog(store / WAL_FILENAME)
    assert [lsn for lsn, __ in log.replay()] == list(range(1, 201))


def test_worker_memo_detects_store_rewrite(doc, tmp_path):
    """Regression: a memoized worker attachment must notice the on-disk
    store being rewritten even when the parent-passed version repeats."""
    from repro.maintenance import update_store
    from repro.service.jobs import EvalJob

    store = tmp_path / "store"
    with ViewCatalog(doc) as catalog:
        catalog.add(parse_pattern("//c", name="w2"), "LEp")
        save_catalog(catalog, store)

    job = EvalJob.from_patterns(
        0, parse_pattern("//c"), [parse_pattern("//c", name="w2")],
        "VJ", "LEp",
    )
    # Simulate a pooled worker: same process, repeated calls, constant
    # parent version (7) — the memo is keyed on it.
    before = run_worker_jobs(store, [job], store_version=7)[0]

    victim = first(doc, "c")
    update_store(store, [DeleteSubtree(root_start=victim.start)])

    after = run_worker_jobs(store, [job], store_version=7)[0]
    assert after.match_keys != before.match_keys
    with QueryService.open(str(store)) as svc:
        assert after.match_keys == truth_keys(svc.catalog.document, "//c")
