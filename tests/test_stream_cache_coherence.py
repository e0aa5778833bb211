"""Coherence tests for the sub-plan stream cache (DESIGN.md §13).

The shared executor memoizes eval-node match streams across batches,
keyed by ``(catalog maintenance epoch, planner generation, node hash)``.
Every event that can change what a node's stream *should* contain must
leave no replayable stale entry behind:

* ``register`` (new view changes plans: planner generation bump + clear);
* ``apply_updates`` (document changed: maintenance epoch bump rolls the
  cache *keys* — pre-commit entries stay resident for pinned snapshot
  readers, but no post-commit batch may replay them);
* circuit-breaker quarantine (view dropped mid-flight: clear);
* ``adopt_catalog_views`` (catalog-level registrations adopted: bump).

Each test populates the cache with one batch, mutates, and checks the
next batch against ground truth recomputed from scratch.
"""

from __future__ import annotations

import pytest

from repro.datasets import random_trees
from repro.maintenance import DeleteSubtree, InsertSubtree
from repro.service import QueryService
from repro.storage.catalog import ViewCatalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern

QUERIES = ["//a//b//c", "//a//b//c", "//a//b", "//a[//b]//c"]


@pytest.fixture()
def doc():
    return random_trees.generate(size=250, max_depth=9, seed=12)


@pytest.fixture()
def service(doc):
    with ViewCatalog(doc) as catalog:
        svc = QueryService(catalog)   # result cache off: streams only
        svc.register("//a//b")
        svc.register("//c")
        yield svc
        svc.close()


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m)
        for m in find_embeddings(doc, parse_pattern(query))
    )


def prime(svc):
    """Fill the stream cache and prove a second batch replays from it."""
    svc.evaluate_batch(QUERIES)
    hits = svc.shared_metrics()["stream_hits"]
    svc.evaluate_batch(QUERIES)
    assert svc.shared_metrics()["stream_hits"] > hits
    assert len(svc._stream_cache) > 0
    return svc.shared_metrics()["stream_hits"]


def assert_batch_is_fresh_truth(svc, hits_before):
    """Post-mutation batch: recomputed (no stream hits), correct."""
    batch = svc.evaluate_batch(QUERIES)
    assert svc.shared_metrics()["stream_hits"] == hits_before
    for query, outcome in zip(QUERIES, batch.outcomes):
        assert outcome.match_keys == truth_keys(
            svc.catalog.document, query
        ), query
        assert not outcome.cached
    return batch


def test_register_invalidates_streams(service):
    hits = prime(service)
    generation = service.planner.generation
    service.register("//a//c")
    assert service.planner.generation > generation  # epoch key moved
    assert len(service._stream_cache) == 0          # eager reclaim
    assert_batch_is_fresh_truth(service, hits)


def test_apply_updates_rolls_stream_keys(service):
    hits = prime(service)
    before = service.evaluate_batch(QUERIES).match_counts
    epoch = service.catalog.maintenance_epoch
    victim = [n for n in service.catalog.document.nodes if n.tag == "c"][0]
    report = service.apply_updates([DeleteSubtree(root_start=victim.start)])
    assert report.deltas == 1
    assert service.catalog.maintenance_epoch > epoch
    # Generation-keyed streams (DESIGN.md §16): the commit rolls the
    # epoch component of every key instead of purging, so the entries
    # stay resident for snapshot readers pinned to the old generation...
    assert len(service._stream_cache) > 0
    # ...but a post-commit batch keys under the new epoch pair: zero
    # replays, recomputed from the new document (fresh truth).
    hits = service.shared_metrics()["stream_hits"]
    after = assert_batch_is_fresh_truth(service, hits)
    assert after.match_counts != before  # the delete really changed answers


def test_insert_that_defeats_refutation_is_visible(service):
    # A query refuted by the pre-update DataGuide must be recomputed (not
    # replayed as refuted) once an insert makes it satisfiable.
    first = service.evaluate_batch(["//zzz", "//a//b"])
    assert first.outcomes[0].refuted
    root = service.catalog.document.nodes[0]
    service.apply_updates([
        InsertSubtree(parent_start=root.start, position=0,
                      rows=(("zzz", 0),)),
    ])
    second = service.evaluate_batch(["//zzz", "//a//b"])
    assert not second.outcomes[0].refuted
    assert second.outcomes[0].match_count == 1


def test_quarantine_invalidates_streams(service):
    hits = prime(service)
    name, _scheme = service.catalog.entries()[0][0]
    service._quarantine([name])
    assert name in service.planner.quarantined
    assert len(service._stream_cache) == 0
    # Plans re-form over the surviving views; answers stay ground truth.
    assert_batch_is_fresh_truth(service, hits)


def test_breaker_trip_path_clears_streams(service):
    # Same invariant through the public failure path: enough recorded
    # failures trip the breaker, which quarantines and must clear.
    from repro.service.jobs import JobFailure

    hits = prime(service)
    plan = service.planner.plan("//a//b//c")
    failure = JobFailure(index=0, kind="store-corrupt", message="injected")
    for _ in range(service.breaker.failure_threshold):
        service._note_failure(plan, failure)
    assert service.breaker.quarantined
    assert len(service._stream_cache) == 0
    assert_batch_is_fresh_truth(service, hits)


def test_adopt_catalog_views_invalidates_streams(service):
    hits = prime(service)
    service.catalog.add(
        parse_pattern("//a//c", name="sidecar"), service.planner.scheme
    )
    assert service.adopt_catalog_views() == 1
    assert len(service._stream_cache) == 0
    assert_batch_is_fresh_truth(service, hits)


def test_invalidate_results_reclaims_spill_pages(doc):
    wide = random_trees.generate(
        size=1500, tags=("a", "b"), max_depth=12, max_fanout=3, seed=5
    )
    with ViewCatalog(wide) as catalog:
        with QueryService(catalog) as svc:
            svc.register("//a//b")
            svc.evaluate_batch(["//a//b"])
            assert svc.shared_metrics()["stream_spilled_streams"] >= 1
            svc.invalidate_results()
            assert len(svc._stream_cache) == 0
            # Retired spill I/O stays visible for accounting...
            metrics = svc.shared_metrics()
            assert metrics["stream_spill_pages_written"] >= 1
            # ...and the next batch still answers correctly.
            again = svc.evaluate_batch(["//a//b"])
            assert again.outcomes[0].match_keys == truth_keys(
                wide, "//a//b"
            )
