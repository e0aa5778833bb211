"""Persistence round-trip through the columnar read path.

Packed columns are built at list *attach* time too (DESIGN.md §8), so a
reloaded store must behave like a never-persisted catalog and like the
row-wise reference (``tests/rowwise_reference.py``) reading the reloaded
pages: ``save_catalog``/``load_catalog`` followed by evaluation has to
produce the same matches, work counters and I/O statistics on all three.
"""

from __future__ import annotations

import pytest

from repro.algorithms.engine import evaluate
from repro.datasets import random_trees
from repro.storage.catalog import ViewCatalog
from repro.storage.persistence import load_catalog, save_catalog
from repro.tpq.parser import parse_pattern
from tests.rowwise_reference import ColumnarEngines, RowwiseEngines

QUERY = parse_pattern("//a[//b]//c//d")
VIEWS = [
    parse_pattern("//a//c", name="v1"),
    parse_pattern("//b", name="v2"),
    parse_pattern("//d", name="v3"),
]
PATH_QUERY = parse_pattern("//a//c//d")
PATH_VIEWS = [
    parse_pattern("//a//c", name="v1"),
    parse_pattern("//d", name="v3"),
]
SCHEMES = ("E", "LE", "LEp")


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=300, max_depth=9, seed=7)


def fingerprint(result):
    return (
        result.match_keys(),
        result.match_count,
        result.counters.as_dict(),
        (
            result.io.logical_reads,
            result.io.physical_reads,
            result.io.pages_written,
        ),
    )


def evaluate_all(engines):
    """Fingerprint every engine × scheme combo on ``engines``
    (``ColumnarEngines`` or ``RowwiseEngines`` over one catalog)."""
    return {
        (engine, scheme): fingerprint(
            engines.evaluate(QUERY, VIEWS, engine, scheme)
        )
        for scheme in SCHEMES
        for engine in ("TS", "VJ")
    }


def interjoin_over(catalog):
    """IJ reads tuple lists, which never had columns: no reference side."""
    return fingerprint(evaluate(PATH_QUERY, catalog, PATH_VIEWS, "IJ", "T"))


def test_reloaded_store_equals_fresh_catalog_and_reference(doc, tmp_path):
    directory = tmp_path / "store"
    with ViewCatalog(doc) as fresh:
        for scheme in SCHEMES:
            fresh.add_all(VIEWS, scheme)
        for view in PATH_VIEWS:
            fresh.add(view, "T")
        save_catalog(fresh, directory)
        expected = evaluate_all(ColumnarEngines(fresh)), interjoin_over(fresh)
    reloaded = load_catalog(directory)
    try:
        assert all(
            stored.columns is not None
            for info in reloaded.views() if info.scheme.value != "T"
            for stored in info.view.lists.values()
        )
        fast = evaluate_all(ColumnarEngines(reloaded)), interjoin_over(reloaded)
    finally:
        reloaded.close()
    assert fast == expected
    # The row-wise reference over the reloaded pages, from a cold pool
    # of its own.
    reloaded = load_catalog(directory)
    try:
        reference = evaluate_all(RowwiseEngines(reloaded))
    finally:
        reloaded.close()
    assert fast[0] == reference
