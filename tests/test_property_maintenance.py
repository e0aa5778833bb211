"""Property test: incremental maintenance equals rebuild-from-scratch.

For seeded random update sequences over XMark and NASA fragments, a
catalog maintained incrementally through
:func:`repro.maintenance.apply_updates` must be **byte-identical** to a
catalog materialized fresh from the final document: same page bytes and
packed columns per list, same entry counts, same pointer statistics, and
same query answers
with identical I/O counters.  Every repaired view's stored entry counts
must also equal the exact solution-list sizes on the new document (the
planner reads them as measured ``|L_q|`` instead of re-matching).  Runs
for every scheme — T, E, LE and LE_p — (2 datasets x 4 schemes x
``SEQUENCES`` seeds = 200 sequences); each dataset carries a one-node
view (``"single"``) next to its twigs.
"""

from __future__ import annotations

import pytest

from repro.algorithms.engine import evaluate
from repro.datasets import nasa, xmark
from repro.datasets.updates import random_update_sequence
from repro.maintenance import apply_updates
from repro.selection import ExactSizes
from repro.storage.catalog import Scheme, ViewCatalog
from repro.tpq.parser import parse_pattern

SEQUENCES = 25
DELTAS_PER_SEQUENCE = 4

DATASETS = {
    "xmark": (
        lambda: xmark.generate(scale=0.2, seed=11),
        [("//open_auctions//bidder", "twig"), ("//item", "single"),
         ("//person//name", "twig2")],
        "//open_auctions//bidder",
        ["bidder", "item", "name", "person", "emph", "listitem"],
    ),
    "nasa": (
        lambda: nasa.generate(scale=0.2, seed=11),
        [("//dataset//title", "twig"), ("//author", "single"),
         ("//reference//source", "twig2")],
        "//dataset//title",
        ["author", "title", "dataset", "source", "altname", "other"],
    ),
}


def build(document, patterns, scheme):
    catalog = ViewCatalog(document)
    for xpath, name in patterns:
        catalog.add(parse_pattern(xpath, name=name), scheme)
    return catalog


def fingerprint(catalog):
    """Per view: every list's page bytes and the columns the engines read
    (a SHIFT derives a clone's columns from its parent's, not from the
    pages, so the pages alone would not catch a wrong derived column).
    A tuple view's one list is keyed by ``""``."""
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
            ), stored.columns.fields))
        stats = getattr(view, "pointer_stats", None)
        rows[(name, scheme.value)] = (
            tuple(payload),
            info.num_pointers,
            stats.as_dict() if stats is not None else None,
        )
    return rows


def stale_list_sizes(catalog):
    """Views whose stored entry counts differ from the exact ``|L_q|``
    on the catalog's current document (a tuple view stores no per-tag
    lists, so the planner reads no counts from it)."""
    exact = ExactSizes(catalog.document)
    return [
        name
        for (name, __), info in catalog.entries()
        if hasattr(info.view, "entry_counts")
        and info.view.entry_counts() != {
            tag: exact.list_size(info.pattern, tag)
            for tag in info.pattern.tags()
        }
    ]


def answers(catalog, query_text, views):
    query = parse_pattern(query_text)
    scheme = catalog.views()[0].scheme
    result = evaluate(
        query, catalog, [parse_pattern(x, name=n) for x, n in views],
        "IJ" if scheme is Scheme.TUPLE else "VJ", scheme,
    )
    # io_ms is wall-clock; only the read counters are deterministic.
    return (
        result.match_keys(),
        result.io.logical_reads,
        result.io.physical_reads,
    )


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("scheme", ["T", "E", "LE", "LEp"])
def test_incremental_equals_rebuild(dataset, scheme):
    generate, patterns, query_text, tag_pool = DATASETS[dataset]
    base = generate()
    covering = [
        (xpath, name) for xpath, name in patterns if xpath == query_text
    ]
    failures = []
    for seed in range(SEQUENCES):
        deltas, final = random_update_sequence(
            base, count=DELTAS_PER_SEQUENCE, seed=seed, tag_pool=tag_pool,
        )
        incremental = build(base, patterns, scheme)
        apply_updates(incremental, deltas)
        rebuilt = build(final, patterns, scheme)
        if fingerprint(incremental) != fingerprint(rebuilt):
            failures.append((seed, "fingerprint"))
            continue
        if answers(incremental, query_text, covering) != \
                answers(rebuilt, query_text, covering):
            failures.append((seed, "answers"))
        if stale_list_sizes(incremental):
            failures.append((seed, "list sizes"))
        incremental.close()
        rebuilt.close()
    assert not failures, failures
