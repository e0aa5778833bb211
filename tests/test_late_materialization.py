"""No record below the output boundary (DESIGN.md §8).

From the cursor to the enumerator a candidate is a list position and its
labels are column ints, and the enumerator's output is columns of start
labels; the one place a record is built is the entry-form tuple view
(``EvalResult.matches``, :func:`~repro.algorithms.base.entry_columns`),
once per candidate that occurs in a match.  These tests count every
``ElementEntry`` / ``LinkedEntry`` construction during a run of each DAG
engine over the paper's XMark and NASA queries: none when the caller
wants keys or a count, none by an entry-form run itself, and exactly the
distinct entries of the answer when its matches are read.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algorithms.base import KEYS
from repro.algorithms.engine import evaluate
from repro.datasets import nasa as nasa_data
from repro.datasets import xmark as xmark_data
from repro.storage.catalog import ViewCatalog
from repro.storage.records import ElementEntry, LinkedEntry
from repro.workloads import nasa as nasa_queries
from repro.workloads import xmark as xmark_queries

SCHEMES = ("E", "LE", "LEp")
MODES = ("memory", "disk")


def cases(dataset):
    if dataset == "xmark":
        return [
            (spec.query, spec.views) for spec in xmark_queries.ALL_QUERIES
        ]
    return [
        (nasa_queries.QUERY_NP, views)
        for views in nasa_queries.PATH_VIEW_SETS.values()
    ] + [
        (nasa_queries.QUERY_NT, views)
        for views in nasa_queries.TWIG_VIEW_SETS.values()
    ]


@pytest.fixture(scope="module", params=["xmark", "nasa"])
def workload(request):
    """``(catalog, cases)`` with every view materialized in every scheme
    before anything is counted."""
    generate = (
        xmark_data if request.param == "xmark" else nasa_data
    ).generate
    with ViewCatalog(generate(scale=0.5, seed=3)) as catalog:
        for __, views in cases(request.param):
            for view in views:
                for scheme in SCHEMES:
                    catalog.add(view, scheme)
        yield catalog, cases(request.param)


@pytest.fixture
def built(monkeypatch):
    """Constructions of either record type, counted by type name."""
    counts: Counter = Counter()
    for kind in (ElementEntry, LinkedEntry):
        def new(cls, *fields, _new=kind.__new__, _name=kind.__name__):
            counts[_name] += 1
            return _new(cls, *fields)

        def make(cls, fields, _make=kind._make.__func__, _name=kind.__name__):
            counts[_name] += 1
            return _make(cls, fields)

        monkeypatch.setattr(kind, "__new__", new)
        monkeypatch.setattr(kind, "_make", classmethod(make))
    return counts


def engines_for(query):
    return ("VJ", "TS", "PS") if query.is_path() else ("VJ", "TS")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_keys_and_counts_build_no_record(workload, built, scheme, mode):
    catalog, queries = workload
    answered = 0
    for query, views in queries:
        for algorithm in engines_for(query):
            for emit in (KEYS, False):
                result = evaluate(
                    query, catalog, views, algorithm, scheme, mode=mode,
                    emit_matches=emit,
                )
                answered += result.match_count
                assert not built, (
                    f"{algorithm}+{scheme} {mode} emit={emit!r} built"
                    f" {dict(built)} for {query.to_xpath()}"
                )
    assert answered > 0  # the runs did flush candidates


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_entries_are_built_once_per_entry_of_the_answer(
    workload, built, scheme, mode
):
    catalog, queries = workload
    for query, views in queries:
        for algorithm in engines_for(query):
            built.clear()
            result = evaluate(
                query, catalog, views, algorithm, scheme, mode=mode
            )
            assert not built, (
                f"{algorithm}+{scheme} {mode} built {dict(built)} before"
                f" its matches were read, for {query.to_xpath()}"
            )
            matches = result.matches
            made = dict(built)
            in_answer = {
                (slot, entry.start)
                for match in matches
                for slot, entry in enumerate(match)
            }
            assert made == (
                {"ElementEntry": len(in_answer)} if in_answer else {}
            ), f"{algorithm}+{scheme} {mode} for {query.to_xpath()}"
            assert all(
                type(entry) is ElementEntry
                for match in result.matches for entry in match
            )
