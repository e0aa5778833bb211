"""Streaming output tests: matches delivered per flush via a sink."""

from __future__ import annotations

import pytest

from repro.algorithms.engine import evaluate
from repro.datasets import random_trees
from repro.storage.catalog import ViewCatalog
from repro.tpq.parser import parse_pattern


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(
        size=300, tags=list("abcd"), max_depth=9, seed=9
    )


QUERY = parse_pattern("//a[//b]//c")
VIEWS = [parse_pattern("//a//c"), parse_pattern("//b")]


@pytest.mark.parametrize("algorithm,scheme", [
    ("TS", "E"), ("VJ", "LE"), ("VJ", "LEp"),
])
def test_sink_receives_all_matches(doc, algorithm, scheme):
    with ViewCatalog(doc) as catalog:
        baseline = evaluate(QUERY, catalog, VIEWS, algorithm, scheme)
        batches: list[list] = []
        streamed = evaluate(
            QUERY, catalog, VIEWS, algorithm, scheme,
            sink=batches.append,
        )
    flattened = sorted(
        tuple(entry.start for entry in match)
        for batch in batches
        for match in batch
    )
    assert flattened == baseline.match_keys()
    # With a sink, the result object itself stays empty.
    assert streamed.matches == []
    assert streamed.match_count == baseline.match_count


def test_sink_batches_follow_partitions(doc):
    """Each sink call corresponds to one flush — a page of closed
    partitions — in document order of the partition roots."""
    with ViewCatalog(doc) as catalog:
        batches: list[list] = []
        result = evaluate(
            QUERY, catalog, VIEWS, "VJ", "LE", sink=batches.append
        )
    non_empty = [batch for batch in batches if batch]
    assert len(batches) == result.counters.flushes
    firsts = [batch[0][0].start for batch in non_empty]
    assert firsts == sorted(firsts)


def test_sink_with_disk_mode(doc):
    with ViewCatalog(doc) as catalog:
        baseline = evaluate(QUERY, catalog, VIEWS, "VJ", "LE")
        batches: list[list] = []
        evaluate(
            QUERY, catalog, VIEWS, "VJ", "LE", mode="disk",
            sink=batches.append,
        )
    flattened = sorted(
        tuple(entry.start for entry in match)
        for batch in batches
        for match in batch
    )
    assert flattened == baseline.match_keys()


def test_sink_peak_memory_stays_bounded(doc):
    """Streaming keeps one partition and at most a page of closed ones
    buffered; the result never holds the whole match set."""
    with ViewCatalog(doc) as catalog:
        result = evaluate(
            QUERY, catalog, VIEWS, "VJ", "LE", sink=lambda batch: None
        )
    assert result.matches == []
    assert result.peak_buffer_entries > 0
