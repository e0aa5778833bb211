"""Match-enumeration tests: the factorized enumerator vs the naive
oracle, vs the retired odometer (``tests/odometer_reference.py``) and vs
the retired tuple-building expansion
(``tests/tuple_enumeration_reference.py``)."""

from __future__ import annotations

import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.dag as dag_module
from repro.algorithms import engine
from repro.algorithms.base import KEYS, Counters, match_rows
from repro.algorithms.preempt import PlanState, QuantumBudget
from repro.datasets import random_trees
from repro.datasets import xmark as xmark_data
from repro.storage.catalog import ViewCatalog
from repro.storage.records import ElementEntry
from repro.tpq.enumeration import (
    Enumeration,
    MatchPlan,
    count_matches,
    enumerate_matches,
)
from repro.tpq.matching import solution_nodes
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from repro.tpq.pattern import Axis, pattern_from_edges
from repro.workloads import xmark as xmark_queries
from repro.xmltree.document import DocumentBuilder
from tests.collector_probe import collections_started, started_inside
from tests.odometer_reference import odometer_matches
from tests.synthetic_lists import admit, buffer_over, page_capacity
from tests.tuple_enumeration_reference import TupleEnumeration


def test_enumerate_from_full_tag_lists(small_doc):
    q = parse_pattern("//a[f]//d//e")
    candidates = {tag: list(small_doc.tag_list(tag)) for tag in q.tags()}
    matches = enumerate_matches(q, candidates)
    truth = find_embeddings(small_doc, q)
    assert [tuple(n.start for n in m) for m in matches] == [
        tuple(n.start for n in m) for m in truth
    ]


def test_enumerate_filters_supersets(small_doc):
    """Extra candidates that join with nothing must not produce matches."""
    q = parse_pattern("//b/c")
    candidates = {
        "b": list(small_doc.tag_list("b")),
        # include a non-child c2-style decoy by lying about the tag list
        "c": list(small_doc.tag_list("c")) + list(small_doc.tag_list("g")),
    }
    matches = enumerate_matches(q, candidates)
    assert len(matches) == 1


def test_pc_level_check(recursive_doc):
    q = parse_pattern("//a/e")
    candidates = {tag: list(recursive_doc.tag_list(tag)) for tag in q.tags()}
    matches = enumerate_matches(q, candidates)
    truth = find_embeddings(recursive_doc, q)
    assert len(matches) == len(truth)


def test_missing_tag_raises(small_doc):
    q = parse_pattern("//a//b")
    import pytest
    from repro.errors import PatternError

    with pytest.raises(PatternError):
        enumerate_matches(q, {"a": list(small_doc.tag_list("a"))})


def test_empty_candidates_empty_result(small_doc):
    q = parse_pattern("//a//b")
    assert enumerate_matches(q, {"a": [], "b": []}) == []


QUERIES = [
    "//a//b//c",
    "//a[//b]//c",
    "//a[b]//c/d",
    "//a[//b//c]//d[e]//f",
]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 500), query=st.sampled_from(QUERIES))
def test_enumerate_equals_naive_on_solution_lists(seed, query):
    doc = random_trees.generate(size=100, max_depth=8, seed=seed)
    pattern = parse_pattern(query)
    sols = solution_nodes(doc, pattern)
    matches = enumerate_matches(pattern, sols)
    truth = find_embeddings(doc, pattern)
    assert [tuple(n.start for n in m) for m in matches] == [
        tuple(n.start for n in m) for m in truth
    ]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 500), query=st.sampled_from(QUERIES))
def test_count_matches_equals_enumeration(seed, query):
    doc = random_trees.generate(size=100, max_depth=8, seed=seed)
    pattern = parse_pattern(query)
    sols = solution_nodes(doc, pattern)
    assert count_matches(pattern, sols) == len(enumerate_matches(pattern, sols))


def keys_of(matches):
    return [tuple(entry.start for entry in match) for match in matches]


def rows(opened, lo, hi):
    """Matches ``lo..hi`` of ``opened`` as tuples of start labels."""
    return list(zip(*opened.take(lo, hi)))


def label_columns(pattern, candidates):
    """``candidates`` as the by-slot columns :meth:`MatchPlan.open` takes."""
    pools = [candidates[tag] for tag in pattern.tags()]
    return tuple(
        [[getattr(entry, field) for entry in pool] for pool in pools]
        for field in ("start", "end", "level")
    )


def odometer_keys(pattern, candidates):
    return sorted(keys_of(odometer_matches(pattern, candidates)))


def assert_strictly_increasing(keys):
    assert all(a < b for a, b in zip(keys, keys[1:]))


def assert_sliceable(pattern, candidates, rng, keys):
    """However the rank range is cut, the slices concatenate to the whole
    answer, every slice is the zip of its columns, and every slice equals
    the retired tuple expansion's — as start keys, and as entries built
    from the candidate labels (:meth:`Enumeration.records`)."""
    plan = MatchPlan(pattern)
    opened = plan.open_entries(candidates)
    reference = TupleEnumeration(
        plan, *label_columns(pattern, candidates), record=ElementEntry
    )
    assert opened.total == reference.total == len(keys)
    whole = opened.take(0, opened.total)
    assert [type(column) for column in whole] == [list] * len(plan.tags)
    assert {len(column) for column in whole} == {len(keys)}
    assert list(zip(*whole)) == keys
    assert rows(opened, -3, opened.total + 3) == keys  # clamped
    records = opened.records(ElementEntry)
    assert opened.records(ElementEntry) is records  # built once
    assert match_rows(opened.take(0, opened.total, records)) == (
        reference.take(0, reference.total)
    )
    for _ in range(4):
        cuts = sorted(
            rng.randrange(opened.total + 1) for _ in range(rng.randint(1, 5))
        )
        bounds = [0, *cuts, opened.total]
        taken = []
        for lo, hi in zip(bounds, bounds[1:]):
            part = rows(opened, lo, hi)
            assert part == keys[lo:hi] == reference.take(lo, hi, keys=True)
            assert match_rows(opened.take(lo, hi, records)) == (
                reference.take(lo, hi)
            )
            taken += part
        assert taken == keys


def test_matches_odometer_reference(small_doc):
    q = parse_pattern("//a//c")
    candidates = {tag: list(small_doc.tag_list(tag)) for tag in q.tags()}
    assert keys_of(enumerate_matches(q, candidates)) == odometer_keys(
        q, candidates
    )


# -- seeded differential property suite ---------------------------------------

TAGS = "abcdef"


def random_pattern(rng: random.Random, fanouts: tuple[int, ...]):
    """A pattern whose branching nodes have the given numbers of children
    (in creation order), every other node one child or none, over the
    first ``1 + sum(fanouts)`` tags of ``TAGS``; each edge is pc with
    probability 1/4."""
    tags = list(TAGS[:1 + sum(fanouts)])
    rng.shuffle(tags)
    root = tags.pop()
    edges = []
    frontier = [root]
    for fanout in fanouts:
        parent = frontier.pop(rng.randrange(len(frontier)))
        for _ in range(fanout):
            child = tags.pop()
            axis = Axis.CHILD if rng.random() < 1 / 4 else Axis.DESCENDANT
            edges.append((parent, child, axis))
            frontier.append(child)
    return pattern_from_edges(root, edges)


def random_case(rng: random.Random, seed: int, size: int):
    """A random pattern and a document over exactly the pattern's tags
    (at least three), so pools are dense and every tag nests inside
    itself."""
    pattern = random_pattern(rng, SHAPES[seed % len(SHAPES)])
    doc = random_trees.generate(
        size=size, tags=list(TAGS[:max(3, len(pattern))]), max_depth=7,
        seed=seed,
    )
    return doc, pattern


#: children per branching node: paths, 2-way and >= 3-way twigs, nested twigs
SHAPES = [(), (1,), (1, 1, 1), (2,), (2, 1), (3,), (4,), (2, 2), (3, 2), (5,)]


@pytest.mark.parametrize("seed", range(60))
def test_differential_against_naive_and_odometer(seed):
    """Random documents x random patterns, fed the *whole* per-tag
    lists: the enumerator must do all the pruning itself."""
    rng = random.Random(seed)
    doc, pattern = random_case(rng, seed, rng.choice((60, 140)))
    candidates = {
        tag: list(doc.tag_list(tag)) for tag in pattern.tags()
    }
    keys = keys_of(enumerate_matches(pattern, candidates))
    assert keys == keys_of(find_embeddings(doc, pattern))
    assert keys == odometer_keys(pattern, candidates)
    assert_strictly_increasing(keys)
    assert count_matches(pattern, candidates) == len(keys)
    assert_sliceable(pattern, candidates, rng, keys)


@pytest.mark.parametrize("seed", range(40))
def test_differential_on_thinned_pools(seed):
    """Drop random candidates (and sometimes a whole pool): bindings lose
    their whole child range and must be pruned, as the odometer does."""
    rng = random.Random(1000 + seed)
    doc, pattern = random_case(rng, seed, 200)
    candidates = {
        tag: [node for node in doc.tag_list(tag) if rng.random() < 0.7]
        for tag in pattern.tags()
    }
    if seed % 8 == 0:
        candidates[rng.choice(pattern.tags())] = []
    keys = keys_of(enumerate_matches(pattern, candidates))
    assert keys == odometer_keys(pattern, candidates)
    assert_strictly_increasing(keys)
    assert count_matches(pattern, candidates) == len(keys)
    assert_sliceable(pattern, candidates, rng, keys)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_take_ranges_equal_the_whole_take_and_the_tuple_reference(
    seed, data
):
    """Random patterns with pc-edges over documents of the pattern's own
    tags (so every tag nests inside itself): the columns of any
    ``take(lo, hi)`` zip to rows ``lo..hi`` of the whole take, and to
    what the retired tuple expansion builds for the same range."""
    rng = random.Random(seed)
    doc, pattern = random_case(rng, seed, rng.choice((60, 140)))
    candidates = {tag: list(doc.tag_list(tag)) for tag in pattern.tags()}
    plan = MatchPlan(pattern)
    columns = label_columns(pattern, candidates)
    opened = plan.open(*columns)
    reference = TupleEnumeration(plan, *columns)
    whole = rows(opened, 0, opened.total)
    lo = data.draw(st.integers(0, opened.total))
    hi = data.draw(st.integers(lo, opened.total))
    part = opened.take(lo, hi)
    assert {len(column) for column in part} == {hi - lo}
    assert list(zip(*part)) == whole[lo:hi] == reference.take(
        lo, hi, keys=True
    )


def test_single_node_pattern(small_doc):
    q = parse_pattern("//c")
    pool = list(small_doc.tag_list("c"))
    assert enumerate_matches(q, {"c": pool}) == [(node,) for node in pool]
    assert count_matches(q, {"c": pool}) == len(pool)
    assert enumerate_matches(q, {"c": []}) == []
    assert_sliceable(q, {"c": pool}, random.Random(0), keys_of(
        [(node,) for node in pool]
    ))
    assert MatchPlan(q).open_entries({"c": []}).take(0, 5) == [[]]


def test_recursive_parlist_xmark():
    """Q19 touches the self-nesting ``parlist``: nested candidates of one
    pattern node share descendants, and both must keep them."""
    doc = xmark_data.generate(scale=0.5, seed=3)
    spec = xmark_queries.BY_NAME["Q19"]
    candidates = solution_nodes(doc, spec.query)
    parlists = candidates["parlist"]
    assert any(
        outer.start < inner.start < outer.end
        for outer, inner in zip(parlists, parlists[1:])
    )
    keys = keys_of(enumerate_matches(spec.query, candidates))
    assert keys == keys_of(find_embeddings(doc, spec.query))
    assert keys == odometer_keys(spec.query, candidates)
    assert_strictly_increasing(keys)
    assert_sliceable(spec.query, candidates, random.Random(19), keys)


def test_plan_is_reusable_across_candidate_sets(small_doc, recursive_doc):
    """One compiled plan serves every partition of a run."""
    q = parse_pattern("//a//e")
    plan = MatchPlan(q)
    for doc in (small_doc, recursive_doc, small_doc):
        candidates = {tag: list(doc.tag_list(tag)) for tag in q.tags()}
        opened = plan.open_entries(candidates)
        assert rows(opened, 0, opened.total) == keys_of(
            find_embeddings(doc, q)
        )
        columns = label_columns(q, candidates)
        assert plan.count(*columns) == len(find_embeddings(doc, q))
        # on bare label columns an entry-form match is made of records
        # built from the candidates' labels
        bare = plan.open(*columns)
        records = bare.records(ElementEntry)
        assert match_rows(bare.take(0, bare.total, records)) == [
            tuple(ElementEntry(n.start, n.end, n.level) for n in match)
            for match in find_embeddings(doc, q)
        ]


# -- output sensitivity: dead candidates must not be expanded -------------------

def decoy_doc(paths: dict[str, list[tuple[str, int]]]):
    """``root`` holding one ``r`` per entry of ``paths``: the named chain
    of wrapper tags, then ``x`` with the given (tag, repeat) leaf runs."""
    b = DocumentBuilder("decoys")

    def descend(chain, leaves):
        if not chain:
            for tag, repeat in leaves:
                for _ in range(repeat):
                    b.leaf(tag)
            return
        with b.element(chain[0]):
            descend(chain[1:], leaves)

    with b.element("root"):
        for chain, leaves in paths.items():
            descend(["r", *chain.split(), "x"], leaves)
    return b.build()


def peak_bytes_of(run):
    import tracemalloc

    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


FAT = 400  # a dead x holds FAT ** 2 (or ** 3) sub-matches: >= 16 MB built

DEAD_WEIGHT_CASES = [
    # a pc-edge above the branching node rejects the fat x (it sits under w)
    ("//r/x[//y]//z",
     {"": [("y", 1), ("z", 1)], "w": [("y", FAT), ("z", FAT)]}),
    # the same, three-way: the product would be FAT ** 3
    ("//r/x[//y][//v]//z",
     {"": [("y", 1), ("v", 1), ("z", 1)],
      "w": [("y", 60), ("v", 60), ("z", 60)]}),
    # the fat x is admitted, but its r has no q//t: a sibling branch kills it
    ("//r[//q//t]//x[//y]//z",
     {"q t": [("y", 1), ("z", 1)], "q": [("y", FAT), ("z", FAT)]}),
]


@pytest.mark.parametrize("xpath,paths", DEAD_WEIGHT_CASES)
def test_dead_candidates_are_not_expanded(xpath, paths):
    """Pools straight from the tag lists: what the filter would have
    dropped must cost integers, not sub-matches."""
    doc = decoy_doc(paths)
    q = parse_pattern(xpath)
    candidates = {tag: list(doc.tag_list(tag)) for tag in q.tags()}
    truth = keys_of(find_embeddings(doc, q))
    assert 1 <= len(truth) <= 2
    found, peak = peak_bytes_of(lambda: enumerate_matches(q, candidates))
    assert keys_of(found) == truth
    assert peak < 1_000_000
    assert count_matches(q, candidates) == len(truth)


def test_dead_nested_chains_are_not_expanded():
    """No branching at all: ``//r/a//b//c`` where the only ``a`` under an
    ``r`` is small and a deep a/b/c nest elsewhere holds ~depth ** 3 / 6
    dead chains."""
    depth = 150
    b = DocumentBuilder("nest")
    with b.element("root"):
        with b.element("r"):
            with b.element("a"):
                with b.element("b"):
                    b.leaf("c")
        with b.element("w"):
            def nest(tags):
                if not tags:
                    return
                with b.element(tags[0]):
                    nest(tags[1:])
            nest(["a"] * depth + ["b"] * depth + ["c"] * depth)
    doc = b.build()
    q = parse_pattern("//r/a//b//c")
    candidates = {tag: list(doc.tag_list(tag)) for tag in q.tags()}
    found, peak = peak_bytes_of(lambda: enumerate_matches(q, candidates))
    assert keys_of(found) == keys_of(find_embeddings(doc, q))
    assert len(found) == 1
    assert peak < 2_000_000


@pytest.mark.parametrize("algorithm,scheme", [
    ("TS", "E"), ("VJ", "E"), ("VJ", "LEp"),
])
def test_engine_flush_with_dead_weight(algorithm, scheme):
    """Single-node views filter nothing, so the flush sees the fat pools."""
    xpath, paths = DEAD_WEIGHT_CASES[0]
    doc = decoy_doc(paths)
    q = parse_pattern(xpath)
    views = [parse_pattern(f"//{tag}") for tag in q.tags()]
    with ViewCatalog(doc) as catalog:
        result, peak = peak_bytes_of(
            lambda: engine.evaluate(q, catalog, views, algorithm, scheme)
        )
    assert result.match_keys() == keys_of(find_embeddings(doc, q))
    assert peak < 4_000_000


def test_nested_live_parents_over_a_pruned_slot():
    """Recursive ``a``: both admit the same live ``b``; a fat ``b`` outside
    every ``a`` forces the pruning walk over the ad-edge."""
    b = DocumentBuilder("nested-parents")
    with b.element("root"):
        with b.element("a"):
            with b.element("a"):
                with b.element("b"):
                    b.leaf("c")
                    b.leaf("d")
            with b.element("b"):
                b.leaf("c")
                b.leaf("d")
        with b.element("b"):
            for tag in "c" * FAT + "d" * FAT:
                b.leaf(tag)
    doc = b.build()
    q = parse_pattern("//a//b[//c]//d")
    candidates = {tag: list(doc.tag_list(tag)) for tag in q.tags()}
    found, peak = peak_bytes_of(lambda: enumerate_matches(q, candidates))
    assert len(found) == 3
    assert keys_of(found) == keys_of(find_embeddings(doc, q))
    assert peak < 1_000_000


def test_live_and_dead_candidates_share_a_slot():
    """Pruning keeps the survivors' offsets straight: live x alternate
    with fat dead ones in one pool."""
    b = DocumentBuilder("mixed")
    with b.element("root"):
        for fat in (False, True, False, True, False):
            with b.element("r"):
                if fat:
                    with b.element("w"):
                        with b.element("x"):
                            for tag in "y" * 8 + "z" * 8:
                                b.leaf(tag)
                else:
                    with b.element("x"):
                        for tag in "yzz":
                            b.leaf(tag)
    doc = b.build()
    q = parse_pattern("//r/x[//y]//z")
    candidates = {tag: list(doc.tag_list(tag)) for tag in q.tags()}
    keys = keys_of(enumerate_matches(q, candidates))
    assert len(keys) == 6
    assert keys == keys_of(find_embeddings(doc, q))
    assert keys == odometer_keys(q, candidates)
    assert_strictly_increasing(keys)


# -- ranked access: a slice costs its own size, wherever it lies ---------------

def test_slices_around_unneeded_sub_matches():
    """Two ways a run of candidates can span sub-matches none of them
    admits, in a slot the pruning walk leaves alone (``r0``'s 50-fold
    product keeps the ``x`` sub-matches under the match count): a fat
    ``x`` under another ``r`` between two light ones (the run is halved),
    and a fat ``x`` one level too deep between two picks of one ``r``
    (picks are fetched one by one)."""
    b = DocumentBuilder("stragglers")

    def x(width):
        with b.element("x"):
            for tag in "y" * width + "z" * width:
                b.leaf(tag)

    with b.element("root"):
        with b.element("r"):            # r0: 50 q x (2 y x 2 z)
            for _ in range(50):
                b.leaf("q")
            x(2)
        with b.element("r"):            # r1: one match
            b.leaf("q")
            x(1)
        with b.element("r"):            # r2: its only x is a grandchild
            b.leaf("q")
            with b.element("w"):
                x(5)
        with b.element("r"):            # r3: picks x, not w/x, x
            b.leaf("q")
            x(1)
            with b.element("w"):
                x(5)
            x(1)
    doc = b.build()
    q = parse_pattern("//r[//q]/x[//y]//z")
    candidates = {tag: list(doc.tag_list(tag)) for tag in q.tags()}
    keys = keys_of(find_embeddings(doc, q))
    assert len(keys) == 200 + 1 + 0 + 2
    opened = MatchPlan(q).open_entries(candidates)
    assert rows(opened, 0, opened.total) == keys
    assert rows(opened, 200, 203) == keys[200:]   # r1..r3, whole
    assert rows(opened, 201, 203) == keys[201:]   # r3 alone
    assert rows(opened, 199, 202) == keys[199:202]
    assert_sliceable(q, candidates, random.Random(5), keys)


def synthetic(spec):
    """Pools from ``{tag: [(start, end, level), ...]}``."""
    return {
        tag: [ElementEntry(*labels) for labels in rows]
        for tag, rows in spec.items()
    }


def pairs_below_the_root(n):
    """One ``a`` over ``n`` (b, c) pairs: the bulk sits two levels down."""
    return parse_pattern("//a//b//c"), synthetic({
        "a": [(0, 4 * n + 1, 0)],
        "b": [(4 * i + 1, 4 * i + 4, 1) for i in range(n)],
        "c": [(4 * i + 2, 4 * i + 3, 2) for i in range(n)],
    })


def product_at_the_root(n):
    """One ``a`` over ``n`` b and ``n`` c: n * n matches, one product."""
    return parse_pattern("//a[//b]//c"), synthetic({
        "a": [(0, 4 * n + 1, 0)],
        "b": [(2 * i + 1, 2 * i + 2, 1) for i in range(n)],
        "c": [(2 * (n + i) + 1, 2 * (n + i) + 2, 1) for i in range(n)],
    })


@pytest.mark.parametrize("build,n,total", [
    (pairs_below_the_root, 200_000, 200_000),
    (product_at_the_root, 1_000, 1_000_000),
])
@pytest.mark.parametrize("as_rows", [False, True])
def test_take_stores_only_its_slice(build, n, total, as_rows):
    """``take(lo, lo + k)`` allocates O(pattern size x k), whatever ``lo``
    and ``total`` are — as columns, and zipped into rows: a few hundred
    bytes per row at most, never the tens of megabytes the whole answer
    (or one whole child slot) would take."""
    pattern, candidates = build(n)
    opened = MatchPlan(pattern).open_entries(candidates)
    assert opened.total == total

    def taken(lo, hi):
        columns = opened.take(lo, hi)
        return list(zip(*columns)) if as_rows else columns[0]

    k = 2000
    peaks = []
    for lo in (0, 1, total // 2 - 7, total // 3, total - k):
        built, peak = peak_bytes_of(lambda: taken(lo, lo + k))
        assert len(built) == k
        peaks.append(peak)
    # columns: 4 bytes per label, and two transient ints per candidate
    # of a bulk run; rows: a ~64-byte tuple each on top
    bound = 600 if as_rows else 200
    assert max(peaks) < bound * k
    double = peak_bytes_of(lambda: taken(total // 2, total // 2 + 2 * k))[1]
    assert double < bound * 2 * k


def test_take_addresses_the_product_by_rank():
    """Row ``i * n + j`` of ``//a[//b]//c`` is (a, b_i, c_j)."""
    n = 40
    pattern, candidates = product_at_the_root(n)
    opened = MatchPlan(pattern).open_entries(candidates)
    b, c = candidates["b"], candidates["c"]
    for lo, hi in ((0, 1), (n - 1, n + 1), (3 * n + 7, 9 * n + 2),
                   (n * n - 1, n * n)):
        assert rows(opened, lo, hi) == [
            (0, b[rank // n].start, c[rank % n].start)
            for rank in range(lo, hi)
        ]


# -- the collector has nothing to do in a take ---------------------------------

@pytest.mark.parametrize("as_keys", [False, True])
def test_take_starts_no_collection(as_keys):
    """20 000 matches are three columns, of start labels or of the
    candidates' records: with the collector on throughout, a take
    allocates a handful of objects it tracks, not one per match, so no
    collection starts inside it — the young generation is emptied
    first, so this measures the take alone.  Zipping the columns into
    20 000 tuples starts none either (``match_rows`` pauses the
    collector for its own extent); the first allocation after it starts
    the young pass the tuples deferred: the probe was live."""
    pattern, candidates = pairs_below_the_root(20_000)
    opened = MatchPlan(pattern).open(*label_columns(pattern, candidates))
    values = None if as_keys else opened.records(ElementEntry)
    assert gc.isenabled()
    gc.collect()
    with collections_started() as started:
        before = gc.get_count()[0]
        columns = opened.take(0, opened.total, values)
        tracked = gc.get_count()[0] - before
        assert gc.isenabled()
        built = match_rows(columns)
        assert gc.isenabled() and started == []
        after = [[] for _ in range(10)]
    assert len(built) == 20_000 and len(after) == 10
    assert tracked < 50
    assert started_inside(started, Enumeration.take) == []
    assert started_inside(started, match_rows) == []
    assert started


@pytest.mark.parametrize("host_enabled", [True, False])
def test_take_leaves_the_collector_as_found(host_enabled):
    """Nothing in the output phase leaves the collector switched: a host
    that runs with it off is not switched on, and one that runs with it
    on is found on again — after a take, the candidates' records, or the
    tuple views (which pause it for their own extent only)."""
    pattern, candidates = pairs_below_the_root(50)
    columns = label_columns(pattern, candidates)
    if not host_enabled:
        gc.disable()
    try:
        opened = MatchPlan(pattern).open(*columns)
        taken = opened.take(0, 50)
        assert gc.isenabled() is host_enabled
        records = opened.records(ElementEntry)
        assert gc.isenabled() is host_enabled
        assert len(match_rows(opened.take(0, 50, records))) == 50
        assert len(match_rows(taken)) == 50
        assert gc.isenabled() is host_enabled
    finally:
        gc.enable()


# -- through the engines: partitions, resume, sink, count-only ----------------

def many_partitions_doc(partitions: int = 120):
    """Q14-shaped: many small disjoint root-tag subtrees, a few matches
    each, some with none."""
    rng = random.Random(14)
    b = DocumentBuilder("tiny-partitions")
    with b.element("root"):
        for _ in range(partitions):
            with b.element("a"):
                for _ in range(rng.randint(0, 2)):
                    with b.element("b"):
                        for _ in range(rng.randint(0, 2)):
                            b.leaf("d")
                for _ in range(rng.randint(0, 3)):
                    b.leaf("c")
    return b.build()


def work_of(result) -> dict:
    """Every work counter but the number of flushes."""
    work = result.counters.as_dict()
    del work["flushes"]
    return work


TWIG = parse_pattern("//a[//b//d]//c")
TWIG_VIEWS = [parse_pattern("//a//c"), parse_pattern("//b//d")]


@pytest.mark.parametrize("algorithm,scheme", [
    ("TS", "E"), ("VJ", "E"), ("VJ", "LE"), ("VJ", "LEp"),
])
@pytest.mark.parametrize("mode", ["memory", "disk"])
def test_many_tiny_partitions(algorithm, scheme, mode):
    """Closed partitions are flushed a page at a time: far fewer flushes
    than partitions, the answer and every other counter those of one
    flush per partition, and the buffer never more than a page above the
    largest partition."""
    doc = many_partitions_doc(600)
    truth = keys_of(find_embeddings(doc, TWIG))
    with ViewCatalog(doc) as catalog:
        result = engine.evaluate(
            TWIG, catalog, TWIG_VIEWS, algorithm, scheme, mode=mode
        )
        with page_capacity(1):
            each = engine.evaluate(
                TWIG, catalog, TWIG_VIEWS, algorithm, scheme, mode=mode
            )
    capacity = dag_module.page_capacity(None)
    assert each.counters.flushes > 200  # one per partition with a root
    assert 1 < result.counters.flushes <= (
        result.counters.candidates_added // capacity + 1
    )
    assert result.counters.flushes * 20 < each.counters.flushes
    # the largest partition is the peak of the per-partition run
    assert each.peak_buffer_entries < 20
    assert capacity <= result.peak_buffer_entries <= (
        each.peak_buffer_entries + capacity - 1
    )
    assert work_of(result) == work_of(each)
    # the accumulated list is canonical as emitted: no sort behind it
    assert keys_of(result.matches) == truth
    assert result.match_keys() == truth
    assert each.matches == result.matches


@pytest.mark.parametrize("mode", ["memory", "disk"])
def test_resume_across_flush_boundaries(mode):
    """Two matches per quantum over many partitions: suspensions fall
    before, inside (the surplus stays factorized: pools and a rank) and
    after flushes (of a few partitions each: five candidates make a
    page here).  The pages so far plus what the state still owes are
    always a prefix of the one-shot answer, and the final counters are
    the one-shot ones."""
    doc = many_partitions_doc(40)
    plan = MatchPlan(TWIG)
    with ViewCatalog(doc) as catalog, page_capacity(5):
        one = engine.evaluate(TWIG, catalog, TWIG_VIEWS, "VJ", "LEp", mode=mode)
        lists = {
            tag: catalog.add(view, "LEp").view.list_for(tag)
            for view in TWIG_VIEWS for tag in view.tags()
        }
        pages: list = []
        state = None
        carried = 0
        while True:
            result, state = engine.evaluate_quantum(
                TWIG, catalog, TWIG_VIEWS, "VJ", "LEp", mode=mode,
                budget=QuantumBudget(max_matches=2), state=state,
            )
            assert 1 <= len(result.matches) <= 2 or state is None
            pages.extend(result.matches)
            if state is None:
                break
            state = PlanState.from_payload(
                json.loads(json.dumps(state.to_payload()))
            )
            owed = []
            if state.pools:
                carried += 1
                # what is owed is carried as list positions, per tag
                opened = plan.open_entries({
                    tag: [
                        ElementEntry(*lists[tag].read(p)[:3])
                        for p in positions
                    ]
                    for tag, positions in state.pools.items()
                })
                assert 0 < state.offset < opened.total
                owed = match_rows(opened.take(
                    state.offset, opened.total,
                    opened.records(ElementEntry),
                ))
            else:
                assert state.offset == 0
            seen = pages + owed
            assert seen == one.matches[:len(seen)]
            # charged at the flush, not as the slices are built
            assert result.match_count == len(seen)
    assert carried > 0
    assert 5 < one.counters.flushes < 20  # of 20 partitions with a root
    assert pages == one.matches
    assert result.match_count == one.match_count
    assert result.counters.as_dict() == one.counters.as_dict()


@pytest.mark.parametrize("emit", [True, KEYS])
def test_one_match_quanta_concatenate_to_the_one_shot_columns(emit):
    """A chain of one-match quanta: every page is at most one row of
    columns, and the pages' columns, appended in order, are the one-shot
    run's — as are their tuple views."""
    doc = many_partitions_doc(40)
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(
            TWIG, catalog, TWIG_VIEWS, "VJ", "LEp", emit_matches=emit
        )
        columns: list[list[int]] = [[] for _ in TWIG.tags()]
        pages: list = []
        state = None
        quanta = 0
        while True:
            result, state = engine.evaluate_quantum(
                TWIG, catalog, TWIG_VIEWS, "VJ", "LEp", emit_matches=emit,
                budget=QuantumBudget(max_matches=1), state=state,
            )
            quanta += 1
            assert {len(column) for column in result.columns} <= {0, 1}
            for column, part in zip(columns, result.columns):
                column += part
            pages += result.matches
            if state is None:
                break
    assert one.match_count > 20 and quanta >= one.match_count
    assert columns == one.columns
    assert pages == one.matches


@pytest.fixture(scope="module")
def one_heavy_partition():
    """One ``a`` over 20 000 (b, c) chains: one flush, 20 000 matches."""
    b = DocumentBuilder("one-heavy-partition")
    with b.element("root"):
        with b.element("a"):
            for _ in range(20_000):
                with b.element("b"):
                    b.leaf("c")
    return b.build()


@pytest.mark.parametrize("algorithm,scheme", [
    ("TS", "E"), ("PS", "E"), ("VJ", "LEp"),
])
@pytest.mark.parametrize("emit", [True, KEYS])
def test_engines_expand_with_the_collector_paused(
    one_heavy_partition, algorithm, scheme, emit
):
    """Every engine's bulk expansion is the one ``take`` of
    ``DagBuffer.flush``, which keeps the collector idle without
    switching it off, and the tuple view of the answer is built with it
    paused: the collector is on after each, and no collection starts
    inside either, while the filter phase starts plenty."""
    path = parse_pattern("//a//b//c")
    views = [parse_pattern("//a//b"), parse_pattern("//c")]
    with ViewCatalog(one_heavy_partition) as catalog:
        with collections_started() as started:
            result = engine.evaluate(
                path, catalog, views, algorithm, scheme, emit_matches=emit
            )
            assert gc.isenabled()
            assert len(result.matches) == 20_000
            assert gc.isenabled()
    assert result.match_count == 20_000
    assert started  # the filter phase allocates with the collector on
    assert started_inside(started, Enumeration.take) == []
    assert started_inside(started, match_rows) == []


def test_owed_slices_expand_with_the_collector_paused(one_heavy_partition):
    """A preemptible run builds what a flush owes in slices: every
    quantum returns with the collector on, and no slice, nor the page's
    tuple view, starts a collection."""
    path = parse_pattern("//a//b//c")
    views = [parse_pattern("//a//b"), parse_pattern("//c")]
    pages = 0
    state = None
    with ViewCatalog(one_heavy_partition) as catalog:
        with collections_started() as started:
            while True:
                result, state = engine.evaluate_quantum(
                    path, catalog, views, "VJ", "LEp",
                    budget=QuantumBudget(max_matches=3_000), state=state,
                )
                assert gc.isenabled()
                assert len(result.matches) <= 3_000
                assert gc.isenabled()
                pages += 1
                if state is None:
                    break
    assert result.match_count == 20_000 and pages == 7
    assert started and started_inside(started, Enumeration.take) == []
    assert started_inside(started, match_rows) == []


@pytest.mark.parametrize("mode", ["memory", "disk"])
def test_sink_batches_are_canonical(mode):
    doc = many_partitions_doc()
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(TWIG, catalog, TWIG_VIEWS, "VJ", "LE", mode=mode)
        batches: list[list] = []
        streamed = engine.evaluate(
            TWIG, catalog, TWIG_VIEWS, "VJ", "LE", mode=mode,
            sink=batches.append,
        )
    assert len(batches) == one.counters.flushes
    assert [match for batch in batches for match in batch] == one.matches
    assert streamed.counters.as_dict() == one.counters.as_dict()


@pytest.mark.parametrize("algorithm,scheme", [("TS", "E"), ("VJ", "LEp")])
@pytest.mark.parametrize("mode", ["memory", "disk"])
def test_count_only_equals_emitting(algorithm, scheme, mode):
    doc = many_partitions_doc()
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(
            TWIG, catalog, TWIG_VIEWS, algorithm, scheme, mode=mode
        )
        counted = engine.evaluate(
            TWIG, catalog, TWIG_VIEWS, algorithm, scheme, mode=mode,
            emit_matches=False,
        )
    assert counted.matches == []
    assert counted.match_count == one.match_count == len(one.matches)
    assert counted.counters.as_dict() == one.counters.as_dict()
    # disk mode: the spill/reload accounting does not depend on emission
    assert counted.io.logical_reads == one.io.logical_reads
    assert counted.io.pages_written == one.io.pages_written
    assert counted.peak_buffer_entries == one.peak_buffer_entries


def test_count_only_flush_builds_no_match(monkeypatch):
    def forbidden(self, starts, ends, levels):
        raise AssertionError("a count-only flush enumerated its matches")

    monkeypatch.setattr(MatchPlan, "open", forbidden)
    counters = Counters()
    dag = buffer_over(parse_pattern("//a//b"), counters, emit_matches=False)
    dag.enter_root(ElementEntry(0, 100, 0))
    admit(dag, "a", ElementEntry(0, 100, 0))
    admit(dag, "b", ElementEntry(3, 4, 1))
    admit(dag, "b", ElementEntry(7, 8, 1))
    dag.flush()
    assert (dag.match_count, counters.matches, counters.flushes) == (2, 2, 1)
    assert dag.result().matches == []
