"""Differential tests for the shared-scan batch executor (DESIGN.md §13).

The acceptance contract: for any batch, a batch read (plan CSE +
memoized sub-plan streams + counter replay) returns outcomes and merged
work/I-O totals *byte-identical* to the independent reference — a loop
of ``evaluate()`` over the same queries on a fresh service — across
engines, schemes, worker counts and result-cache configurations, while
running strictly fewer jobs on duplicate-heavy batches.  The
``repro.workloads.batches`` generator is covered here too.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import Counters
from repro.caching import LRUCache
from repro.datasets import random_trees
from repro.errors import DatasetError, StorageError
from repro.service import QueryService, node_digest, node_key
from repro.service.jobs import JobResult
from repro.service.streams import StreamCache
from repro.storage.catalog import ViewCatalog
from repro.storage.pager import IOStats
from repro.storage.records import MatchKeyCodec
from repro.workloads import repeated_batch

BATCH = repeated_batch(12, overlap=0.6, seed=3)


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=300, max_depth=9, seed=21)


def fingerprint(outcome):
    """Every deterministic observable of one outcome (no wall-clock)."""
    return (
        outcome.query,
        outcome.combo,
        tuple(map(tuple, outcome.match_keys)),
        outcome.match_count,
        outcome.counters.as_dict(),
        (
            outcome.io.logical_reads,
            outcome.io.physical_reads,
            outcome.io.pages_written,
        ),
        outcome.cached,
        outcome.refuted,
        outcome.degraded,
        outcome.error,
    )


def run_batch(
    doc, queries, views, *, batched, workers=0,
    algorithm="VJ", scheme="LEp", cache=0,
):
    """One fresh service; return all deterministic outputs.

    ``batched`` answers the queries as one batch (in-process, or over
    ``workers`` processes); otherwise the independent reference runs:
    one ``evaluate()`` per query, merged in input order.
    """
    with ViewCatalog(doc) as catalog:
        with QueryService(
            catalog, algorithm=algorithm, scheme=scheme,
            result_cache_size=cache,
        ) as svc:
            for view in views:
                svc.register(view)
            if not batched:
                outcomes = [svc.evaluate(query) for query in queries]
                counters, io = Counters(), IOStats()
                for outcome in outcomes:
                    counters.merge(outcome.counters)
                    io.merge(outcome.io)
            else:
                if workers:
                    batch = svc.evaluate_parallel(queries, workers=workers)
                else:
                    batch = svc.evaluate_batch(queries)
                outcomes, counters, io = (
                    batch.outcomes, batch.counters, batch.io
                )
            metrics = svc.shared_metrics()
    return (
        [fingerprint(outcome) for outcome in outcomes],
        counters.as_dict(),
        (io.logical_reads, io.physical_reads, io.pages_written),
        metrics,
    )


# -- the differential matrix ---------------------------------------------------

@pytest.mark.parametrize("algorithm", ["VJ", "TS"])
@pytest.mark.parametrize("scheme", ["E", "LE", "LEp"])
def test_shared_is_byte_identical_across_engines_and_schemes(
    doc, algorithm, scheme
):
    kwargs = dict(algorithm=algorithm, scheme=scheme)
    fast = run_batch(doc, BATCH.queries, BATCH.views, batched=True, **kwargs)
    slow = run_batch(doc, BATCH.queries, BATCH.views, batched=False, **kwargs)
    assert fast[0] == slow[0]       # per-outcome observables, in order
    assert fast[1] == slow[1]       # merged counters
    assert fast[2] == slow[2]       # merged I/O
    # ...while the shared run dispatched only the distinct nodes.
    assert fast[3]["jobs_run"] == len(BATCH.distinct())
    assert fast[3]["jobs_run"] < len(BATCH.queries)
    assert slow[3]["batches"] == 0  # singles leave the shared stats alone


@pytest.mark.parametrize("cache", [0, 8])
def test_shared_is_byte_identical_with_result_cache(doc, cache):
    # With a cache, a repeat later in the batch reports cached=True on
    # *both* paths: the loop's repeat hits the entry its first occurrence
    # stored, and the batch flags its replayed duplicates the same way.
    fast = run_batch(doc, BATCH.queries, BATCH.views, batched=True, cache=cache)
    slow = run_batch(doc, BATCH.queries, BATCH.views, batched=False, cache=cache)
    assert fast[:3] == slow[:3]
    cached_flags = [fp[6] for fp in fast[0]]
    assert any(cached_flags) == (cache > 0)


def test_shared_is_byte_identical_under_workers(doc):
    fast = run_batch(
        doc, BATCH.queries, BATCH.views, batched=True, workers=2, cache=8
    )
    slow = run_batch(doc, BATCH.queries, BATCH.views, batched=False, cache=8)
    sequential = run_batch(doc, BATCH.queries, BATCH.views, batched=True)
    assert fast[:3] == slow[:3]
    # Parallel merged totals equal the sequential shared run's, too (the
    # service-wide determinism contract extends to the shared executor).
    assert fast[1] == sequential[1]
    assert fast[2] == sequential[2]


def test_singleton_batch_matches_and_runs_one_job(doc):
    queries = [BATCH.queries[0]]
    fast = run_batch(doc, queries, BATCH.views, batched=True)
    slow = run_batch(doc, queries, BATCH.views, batched=False)
    assert fast[:3] == slow[:3]
    assert fast[3]["jobs_run"] == 1


def test_refuted_queries_resolve_identically(doc):
    queries = ["//zzz//yyy", BATCH.queries[0], "//zzz//yyy"]
    fast = run_batch(doc, queries, BATCH.views, batched=True)
    slow = run_batch(doc, queries, BATCH.views, batched=False)
    assert fast[:3] == slow[:3]
    assert fast[0][0][7] and fast[0][2][7]  # refuted flags
    assert fast[3]["jobs_run"] == 1


# -- dedupe + ordering (satellite) ---------------------------------------------

def test_duplicates_replay_in_original_positions(doc):
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:
            for view in BATCH.views:
                svc.register(view)
            batch = svc.evaluate_batch(BATCH.queries)
            metrics = svc.shared_metrics()
            # Per-input truth: each outcome equals its query's solo answer.
            solo = {
                text: svc.evaluate(text).match_keys
                for text in BATCH.distinct()
            }
    assert len(batch.outcomes) == len(BATCH.queries)
    for text, outcome in zip(BATCH.queries, batch.outcomes):
        assert outcome.match_keys == solo[text], text
    assert metrics["jobs_run"] == len(BATCH.distinct())
    assert metrics["replayed_queries"] == (
        len(BATCH.queries) - len(BATCH.distinct())
    )
    # First occurrence executed, repeats replayed.
    first_seen = set()
    for text, outcome in zip(BATCH.queries, batch.outcomes):
        assert outcome.shared == (text in first_seen)
        first_seen.add(text)


# -- cross-batch stream memoization --------------------------------------------

def test_second_batch_replays_from_the_stream_cache(doc):
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:   # result cache off
            for view in BATCH.views:
                svc.register(view)
            first = svc.evaluate_batch(BATCH.queries)
            ran = svc.shared_metrics()["jobs_run"]
            second = svc.evaluate_batch(BATCH.queries)
            metrics = svc.shared_metrics()
    assert metrics["jobs_run"] == ran        # nothing re-executed
    assert metrics["stream_hits"] == len(BATCH.distinct())
    assert [fingerprint(o) for o in first.outcomes] == [
        fingerprint(o) for o in second.outcomes
    ]
    assert all(outcome.shared for outcome in second.outcomes)
    assert second.counters.as_dict() == first.counters.as_dict()


def test_large_streams_spill_and_rehydrate_byte_identically():
    # A wide query (every a-b pair) overflows the spill threshold, so the
    # cached stream round-trips through the packed spill pages.
    doc = random_trees.generate(
        size=1500, tags=("a", "b"), max_depth=12, max_fanout=3, seed=5
    )
    queries = ["//a//b", "//a//b"]
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:
            svc.register("//a//b")
            first = svc.evaluate_batch(queries)
            assert first.outcomes[0].match_count >= 256
            spilled = svc.shared_metrics()["stream_spilled_streams"]
            assert spilled >= 1
            second = svc.evaluate_batch(queries)
            assert svc.shared_metrics()["stream_hits"] >= 1
            truth = svc.evaluate(queries[0])  # singles bypass the streams
    assert second.outcomes[0].match_keys == truth.match_keys
    assert first.outcomes[0].match_keys == truth.match_keys


# -- eval-node identity --------------------------------------------------------

def test_node_key_distinguishes_mode_and_emit_and_plan(doc):
    from repro.algorithms.base import Mode

    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:
            svc.register("//a//b")
            plan_a = svc.planner.plan("//a//b//c")
            plan_b = svc.planner.plan("//a//b")
            key = node_key(plan_a, Mode.MEMORY, True)
            assert key == node_key(plan_a, Mode.MEMORY, True)
            assert key != node_key(plan_a, Mode.MEMORY, False)
            assert key != node_key(plan_a, Mode.DISK, True)
            assert key != node_key(plan_b, Mode.MEMORY, True)
            assert node_digest(key) == node_digest(key)
            assert node_digest(key) != node_digest(
                node_key(plan_b, Mode.MEMORY, True)
            )


# -- workload generator (satellite) --------------------------------------------

def test_repeated_batch_is_deterministic():
    a = repeated_batch(20, overlap=0.5, seed=9)
    b = repeated_batch(20, overlap=0.5, seed=9)
    assert a.queries == b.queries and a.views == b.views
    assert repeated_batch(20, overlap=0.5, seed=10).queries != a.queries


def test_repeated_batch_overlap_extremes():
    none = repeated_batch(8, overlap=0.0, seed=1)
    assert len(none.distinct()) == len(none.queries)
    assert none.repeat_ratio == 0.0
    total = repeated_batch(8, overlap=1.0, seed=1)
    assert len(total.distinct()) == 1
    assert total.repeat_ratio == pytest.approx(7 / 8)


def test_repeated_batch_validates_arguments():
    with pytest.raises(DatasetError):
        repeated_batch(4, overlap=1.5)
    with pytest.raises(DatasetError):
        repeated_batch(4, tags="ab")
    assert repeated_batch(0).queries == []


# -- stream-cache plumbing (unit level) ----------------------------------------

def test_weighted_lru_enforces_the_byte_budget():
    cache = LRUCache(capacity=10, weight_budget=100)
    cache.put("a", 1, weight=40)
    cache.put("b", 2, weight=40)
    cache.put("c", 3, weight=40)    # exceeds budget: evicts "a"
    assert "a" not in cache and "b" in cache and "c" in cache
    assert cache.total_weight == 80
    cache.put("huge", 4, weight=101)  # heavier than the whole budget
    assert "huge" not in cache
    assert cache.invalidate() == 2
    assert cache.total_weight == 0


def test_match_key_codec_roundtrip_and_validation():
    codec = MatchKeyCodec(3)
    payload = codec.encode((1, 2, 3))
    assert codec.decode(payload) == (1, 2, 3)
    with pytest.raises(StorageError):
        codec.encode((1, 2))
    with pytest.raises(StorageError):
        MatchKeyCodec(0)


def test_stream_cache_disabled_when_capacity_zero():
    cache = StreamCache(0)
    assert len(cache) == 0
    assert cache.get(("epoch", "digest")) is None
    cache.clear()
    cache.close()


def test_stream_cache_compacts_the_spill_of_evicted_entries():
    """A read-only service never clears its stream cache, so the pages
    of evicted entries must go some other way: 500 put/evict rounds keep
    the spill file within twice the live streams, and what is replayed
    is what was put."""
    cache = StreamCache(4)
    page = cache._pager.page_size

    def stream(round_):
        return [(round_, rank, rank + 1) for rank in range(1000 + round_ % 7)]

    def shell(round_):
        keys = stream(round_)
        return JobResult(
            index=round_, combo="VJ+LEp", match_keys=keys,
            match_count=len(keys), counters=Counters(), io=IOStats(),
            elapsed_s=0.0,
        )

    for round_ in range(500):
        cache.put(("epoch", round_), shell(round_))
        if round_ % 50 == 49:  # GC of a reaped generation
            cache.evict(lambda key: key[1] % 2 == 0)
        live = cache._cache.total_weight
        assert cache._pager.page_file.size_bytes <= 2 * live + page
        assert len(cache) in (2, 3, 4) or round_ < 3
        for recent in range(max(0, round_ - 1), round_ + 1):
            replayed = cache.get(("epoch", recent))
            assert replayed is not None or recent < round_
            if replayed is not None:
                assert replayed.match_keys == stream(recent)
                assert replayed.index == recent
    # a move is not a spill: each stream counted once, the copies' I/O kept
    assert cache.spilled_streams == 500
    assert cache.spilled_bytes == sum(
        len(stream(round_)) * 12 for round_ in range(500)
    )
    assert cache.io.pages_written > 500 * 3
    cache.close()
