"""MVCC snapshot isolation: generation-chained stores, pinned reads,
continuation survival across commits, and generation GC (DESIGN.md §16).

The contract under test:

* every durable commit *publishes* a new immutable generation — the
  outgoing manifest and document are archived first, so a reader pinned
  to generation G keeps answering byte-identically no matter how many
  commits land after it;
* ``pin_generation()`` / ``as_of=`` give callers explicit snapshot
  reads, refcounted, across every engine and labeling scheme;
* a suspended quantum chain resumes against the generation it started
  from — never expired by a commit, byte-identical to the one-shot run;
* GC reaps unreferenced generations down to a disk budget, never a
  hard-pinned one, and sessions on a reaped generation die **typed**
  (:class:`ContinuationExpired`) on their next resume;
* a sustained update storm (chaos-style, seeded fault plan installed)
  produces **zero** failed and **zero** degraded reads;
* the archive is hard links to the files each commit replaced: a crash
  between the two links, or between the archive and the replace, loses
  nothing, and stores whose archive holds copies keep working.
"""

from __future__ import annotations

import base64
import json
import os
import random
import shutil

import pytest

from repro.algorithms import engine
from repro.algorithms.preempt import QuantumBudget
from repro.datasets import random_trees
from repro.errors import (
    ContinuationExpired,
    ContinuationMalformed,
    FaultInjected,
    ServiceError,
    StorageError,
)
from repro.maintenance import DeleteSubtree, InsertSubtree, recover_store
from repro.resilience import FaultPlan, faults
from repro.service import QueryService
from repro.storage.catalog import ViewCatalog
from repro.storage import generations
from repro.storage.generations import (
    generation_document_path,
    generation_manifest_path,
    list_generations,
    load_generation_manifest,
)
from repro.storage.persistence import (
    load_catalog,
    read_store_version,
    save_catalog,
)
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from repro.xmltree.dataguide import DataGuide

QUERIES = ["//a//b//c", "//a[//b]//c", "//a//b"]
QUERY = "//a[//b]//c"
SCHEMES = ["E", "LE", "LEp"]


def make_doc(seed=33, size=220):
    return random_trees.generate(size=size, max_depth=9, seed=seed)


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m)
        for m in find_embeddings(doc, parse_pattern(query))
    )


def one_delta(service, rng):
    """One randomized update against the service's *current* document
    (labels shift every commit, so victims must be re-picked live)."""
    doc = service.catalog.document
    if rng.random() < 0.5:
        victims = [
            n for n in doc.nodes
            if n.tag in ("b", "c") and n.end == n.start + 1
        ]
        if victims:
            return DeleteSubtree(root_start=rng.choice(victims).start)
    parent = rng.choice([n for n in doc.nodes if n.tag == "a"])
    return InsertSubtree(
        parent_start=parent.start, position=0,
        rows=(("b", 0), ("c", 1)),
    )


def storm(service, rounds, seed):
    """Commit ``rounds`` single-delta updates; returns deltas applied."""
    rng = random.Random(seed)
    applied = 0
    for __ in range(rounds):
        applied += service.apply_updates([one_delta(service, rng)]).deltas
    assert applied == rounds  # every round must really commit
    return applied


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    yield
    faults.uninstall()


@pytest.fixture()
def store(tmp_path):
    with ViewCatalog(make_doc()) as catalog:
        catalog.add(parse_pattern("//a//b", name="w1"), "LEp")
        catalog.add(parse_pattern("//c", name="w2"), "LEp")
        save_catalog(catalog, tmp_path / "store")
    return tmp_path / "store"


def memory_service(scheme="LEp", doc=None, **kwargs):
    catalog = ViewCatalog(doc if doc is not None else make_doc())
    catalog.add(parse_pattern("//a//b", name="w1"), scheme)
    catalog.add(parse_pattern("//c", name="w2"), scheme)
    svc = QueryService(catalog, **kwargs)
    svc.adopt_catalog_views()
    return svc


# -- generation chain on disk --------------------------------------------------


def test_commit_archives_outgoing_generation(store):
    with QueryService.open(store) as service:
        outgoing, __ = read_store_version(store)
        before = {q: truth_keys(service.catalog.document, q)
                  for q in QUERIES}
        storm(service, 3, seed=1)
        current, __ = read_store_version(store)
        assert current == outgoing + 3
        archived = list_generations(store)
        assert outgoing in archived and current not in archived
        # The archived manifest is immutable and self-describing...
        manifest = load_generation_manifest(store, outgoing)
        assert manifest["generation"] == outgoing
        # ...and attaching it answers exactly the pre-storm state.
        with load_catalog(store, generation=outgoing) as pinned:
            assert pinned.generation == outgoing
            for query in QUERIES:
                assert truth_keys(pinned.document, query) == before[query]


def test_fresh_save_resets_generation_chain(store):
    with QueryService.open(store) as service:
        storm(service, 2, seed=2)
    assert list_generations(store)
    # Saving a brand-new store over the same path restarts the chain:
    # the old archive describes pages that no longer exist.
    with ViewCatalog(make_doc(seed=5)) as fresh:
        save_catalog(fresh, store)
    assert list_generations(store) == []


def test_reaped_generation_attaches_typed(store):
    with QueryService.open(store) as service:
        outgoing = service.generation
        storm(service, 2, seed=3)
        service.gc_generations(budget_bytes=0)
    with pytest.raises(StorageError, match="reaped by GC or never"):
        load_catalog(store, generation=outgoing)
    with pytest.raises(StorageError):
        load_generation_manifest(store, outgoing)


# -- pinned reads (as_of) ------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "algorithm", [engine.Algorithm.VIEWJOIN, engine.Algorithm.TWIGSTACK]
)
def test_pinned_reads_survive_update_storm(scheme, algorithm):
    svc = memory_service(scheme)
    svc.planner.algorithm = algorithm
    try:
        pin = svc.pin_generation()
        before = {q: sorted(svc.evaluate(q).match_keys) for q in QUERIES}
        storm(svc, 6, seed=4)
        for query in QUERIES:
            snap = svc.evaluate(query, as_of=pin)
            assert sorted(snap.match_keys) == before[query], (
                f"pinned read drifted: {query} ({algorithm}, {scheme})"
            )
            assert not snap.degraded and not snap.error
            fresh = svc.evaluate(query)
            assert sorted(fresh.match_keys) == truth_keys(
                svc.catalog.document, query
            )
        assert svc.resilience_metrics()["pinned_generations"] == 1
        svc.unpin_generation(pin)
        assert svc.resilience_metrics()["pinned_generations"] == 0
        with pytest.raises(ServiceError, match="not pinned"):
            svc.evaluate(QUERY, as_of=pin)
    finally:
        svc.close()


def test_pinned_reader_keeps_pre_commit_refutation():
    """A commit that adds path P: the reader pinned before it still has
    its P-query refuted (its planner shares the pre-commit DataGuide),
    the live reader does not."""
    svc = memory_service()
    try:
        assert svc.evaluate("//zzz").refuted  # builds the live guide
        pin = svc.pin_generation()
        parent = [n for n in svc.catalog.document.nodes if n.tag == "a"][0]
        svc.apply_updates([InsertSubtree(
            parent_start=parent.start, position=0, rows=(("zzz", 0),)
        )])
        assert svc.evaluate("//a//zzz", as_of=pin).refuted
        live = svc.evaluate("//a//zzz")
        assert not live.refuted and live.match_count >= 1
    finally:
        svc.close()


def test_pinned_planner_guide_is_never_mutated():
    svc = memory_service()
    try:
        svc.evaluate(QUERY)  # builds the live guide
        guide = svc.planner._dataguide
        before = sorted(
            (path, guide.count_of(path)) for path in guide.paths()
        )
        pin = svc.pin_generation()
        storm(svc, 5, seed=6)
        pinned = svc._generation_snapshots[pin].planner
        assert pinned._dataguide is guide
        assert sorted(
            (path, guide.count_of(path)) for path in guide.paths()
        ) == before
        live = svc.planner._dataguide
        assert live is not guide
        rebuilt = DataGuide(svc.catalog.document)
        assert sorted(
            (path, live.count_of(path)) for path in live.paths()
        ) == sorted(
            (path, rebuilt.count_of(path)) for path in rebuilt.paths()
        )
    finally:
        svc.close()


def test_unknown_generation_is_typed(store):
    with QueryService.open(store) as service:
        with pytest.raises(ServiceError, match="not pinned"):
            service.evaluate(QUERY, as_of=service.generation + 5)


def test_pin_refcounts_nest():
    svc = memory_service()
    try:
        pin = svc.pin_generation()
        assert svc.pin_generation() == pin  # second hold, same generation
        truth = sorted(svc.evaluate(QUERY).match_keys)
        storm(svc, 2, seed=5)
        svc.unpin_generation(pin)  # one hold left: still readable
        assert sorted(svc.evaluate(QUERY, as_of=pin).match_keys) == truth
        svc.unpin_generation(pin)
        with pytest.raises(ServiceError):
            svc.evaluate(QUERY, as_of=pin)
    finally:
        svc.close()


def test_result_cache_keys_roll_per_generation():
    svc = memory_service(result_cache_size=32)
    try:
        pin = svc.pin_generation()
        assert not svc.evaluate(QUERY, as_of=pin).cached
        assert svc.evaluate(QUERY, as_of=pin).cached
        storm(svc, 1, seed=6)
        # The commit rolled the key: the live read recomputes...
        assert not svc.evaluate(QUERY).cached
        # ...while the pinned reader keeps its pre-commit hit.
        assert svc.evaluate(QUERY, as_of=pin).cached
        svc.unpin_generation(pin)
    finally:
        svc.close()


# -- quantum chains across commits ---------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_quantum_chain_survives_storm_byte_identical(scheme):
    svc = memory_service(scheme)
    try:
        one = svc.evaluate(QUERY)
        outcome = svc.evaluate_quantum(
            QUERY, budget=QuantumBudget(max_steps=1)
        )
        assert outcome.preempted and not outcome.done
        pages = list(outcome.page)
        rng = random.Random(7)
        commits = 0
        while not outcome.done:
            # One commit lands between *every* pair of quanta.
            commits += svc.apply_updates([one_delta(svc, rng)]).deltas
            outcome = svc.resume_quantum(outcome.token)
            pages.extend(outcome.page)
        assert commits >= 2  # the storm really interleaved
        assert pages == list(one.match_keys)
        assert outcome.match_count == one.match_count
        assert outcome.counters.as_dict() == one.counters.as_dict()
        # Chain done: its pin is released, nothing lingers.
        assert svc.resilience_metrics()["pinned_generations"] == 0
        assert svc.continuation_metrics()["active"] == 0
    finally:
        svc.close()


def test_v1_token_rejected_as_unsupported_version():
    svc = memory_service()
    try:
        token = svc.evaluate_quantum(
            QUERY, budget=QuantumBudget(max_steps=1)
        ).token
        blob = bytearray(base64.urlsafe_b64decode(token.encode("ascii")))
        blob[4] = 1  # pre-MVCC version byte
        downgraded = base64.urlsafe_b64encode(bytes(blob)).decode("ascii")
        with pytest.raises(ContinuationMalformed, match="version 1"):
            svc.resume_quantum(downgraded)
    finally:
        svc.close()


# -- generation GC -------------------------------------------------------------


def test_gc_reaps_unreferenced_never_pinned(store):
    with QueryService.open(store) as service:
        pin = service.pin_generation()
        storm(service, 4, seed=8)
        assert len(list_generations(store)) == 4
        report = service.gc_generations(budget_bytes=0)
        assert pin in report.pinned and pin not in report.reaped
        assert set(report.reaped) == {pin + 1, pin + 2, pin + 3}
        assert list_generations(store) == [pin]
        assert report.bytes_after < report.bytes_before
        assert service.resilience_metrics()["generations_reaped"] == 3
        # The pinned snapshot still answers.
        truth = sorted(service.evaluate(QUERY, as_of=pin).match_keys)
        assert truth  # non-empty: the differential bites
        # Released, the next sweep reaps it too.
        service.unpin_generation(pin)
        final = service.gc_generations(budget_bytes=0)
        assert final.reaped == (pin,)
        assert list_generations(store) == []


def test_gc_expires_sessions_on_reaped_generation_typed(store):
    with QueryService.open(store) as service:
        outcome = service.evaluate_quantum(
            QUERY, budget=QuantumBudget(max_steps=1)
        )
        assert not outcome.done
        storm(service, 1, seed=9)
        # The suspended session soft-pins its generation: a budgeted
        # sweep may still reap it (sessions never hold disk hostage)...
        report = service.gc_generations(budget_bytes=0)
        assert report.reaped
        # ...and the session dies typed at its next resume, not wrong.
        with pytest.raises(ContinuationExpired, match="garbage-collected"):
            service.resume_quantum(outcome.token)
        assert service.continuation_metrics()["expired"] == 1


def test_gc_without_budget_only_reports(store):
    with QueryService.open(store) as service:
        storm(service, 3, seed=10)
        report = service.gc_generations()
        assert report.reaped == ()
        assert len(report.kept) == 3
        assert report.bytes_after == report.bytes_before
        assert len(list_generations(store)) == 3


def test_auto_gc_enforces_budget_across_commits(store):
    with QueryService.open(store, generation_budget_bytes=0) as service:
        pin = service.pin_generation()
        storm(service, 5, seed=11)
        # Every commit auto-reaped its unreferenced predecessors; the
        # user pin survived all five sweeps.
        assert list_generations(store) == [pin]
        assert service.resilience_metrics()["generations_reaped"] == 4
        assert sorted(
            service.evaluate(QUERY, as_of=pin).match_keys
        ) == sorted(service.evaluate(QUERY, as_of=pin).match_keys)


def test_in_memory_gc_is_a_no_op_report():
    svc = memory_service()
    try:
        storm(svc, 2, seed=12)
        report = svc.gc_generations(budget_bytes=0)
        assert report.reaped == () and report.kept == ()
        assert svc.generation in report.pinned
    finally:
        svc.close()


# -- chaos: sustained update storm, zero failed / degraded reads ---------------


def test_update_storm_zero_failed_zero_degraded_reads(store):
    """ISSUE acceptance: ≥200 interleaved commit/read sequences under a
    seeded fault plan — every read correct for *its* generation, zero
    failed, zero degraded, and a quantum chain suspended before the
    storm finishes byte-identical after it."""
    rng = random.Random(13)
    with QueryService.open(store) as service:
        service.warmup(QUERIES)
        one = service.evaluate(QUERY)
        suspended = service.evaluate_quantum(
            QUERY, budget=QuantumBudget(max_steps=3)
        )
        assert not suspended.done
        pin = service.pin_generation()
        at_pin = {q: sorted(service.evaluate(q).match_keys)
                  for q in QUERIES}
        faults.install(FaultPlan.parse("seed=13;worker=stall:0.2:0.002"))
        reads = commits = 0
        for round_no in range(80):
            commits += service.apply_updates(
                [one_delta(service, rng)]
            ).deltas
            query = QUERIES[round_no % len(QUERIES)]
            fresh = service.evaluate(query)
            assert not fresh.error and not fresh.degraded
            assert sorted(fresh.match_keys) == truth_keys(
                service.catalog.document, query
            )
            snap = service.evaluate(query, as_of=pin)
            assert not snap.error and not snap.degraded
            assert sorted(snap.match_keys) == at_pin[query]
            reads += 2
            if round_no % 16 == 0:
                batch = service.evaluate_parallel(QUERIES, workers=2)
                for outcome in batch.outcomes:
                    assert not outcome.error and not outcome.degraded
                reads += len(batch.outcomes)
        faults.uninstall()
        assert commits == 80 and commits + reads >= 200
        # The pre-storm chain drains byte-identically through it all.
        pages = list(suspended.page)
        while not suspended.done:
            suspended = service.resume_quantum(suspended.token)
            pages.extend(suspended.page)
        assert pages == list(one.match_keys)
        assert suspended.counters.as_dict() == one.counters.as_dict()
        metrics = service.resilience_metrics()
        assert metrics["failed_queries"] == 0
        assert metrics["degraded_queries"] == 0
        service.unpin_generation(pin)


# -- the linked archive: crash windows and stores archived by copy -------------


def pinned_answers(catalog) -> dict:
    """Every query's match keys as a service over ``catalog`` serves them."""
    with QueryService(catalog) as service:
        service.adopt_catalog_views()
        return {q: list(service.evaluate(q).match_keys) for q in QUERIES}


def test_crash_between_document_and_marker_link_leaves_tolerated_orphan(
    store, monkeypatch
):
    link = os.link

    def crash_before_marker(source, name):
        if str(name).endswith(".json"):
            raise FaultInjected("injected crash before the marker link")
        link(source, name)

    with QueryService.open(store) as service:
        outgoing = service.generation
        before = pinned_answers(service.catalog)
        delta = one_delta(service, random.Random(21))
        monkeypatch.setattr(generations.os, "link", crash_before_marker)
        with pytest.raises(FaultInjected):
            service.apply_updates([delta])
        monkeypatch.undo()
    # An orphan document link and no marker: the generation is not
    # archived, and the store itself was never replaced.
    assert generation_document_path(store, outgoing).exists()
    assert not generation_manifest_path(store, outgoing).exists()
    assert outgoing not in list_generations(store)
    assert read_store_version(store)[0] == outgoing
    # Reopening replays the logged delta; its commit archives the same
    # generation over the orphan instead of failing on it.
    with QueryService.open(store) as service:
        assert service.generation == outgoing + 1
        for query in QUERIES:
            assert sorted(service.evaluate(query).match_keys) == truth_keys(
                service.catalog.document, query
            )
    assert list_generations(store) == [outgoing]
    with load_catalog(store, generation=outgoing) as pinned:
        assert pinned_answers(pinned) == before


def test_crash_after_archive_before_replace_keeps_generation_loadable(store):
    with QueryService.open(store) as service:
        outgoing = service.generation
        pin = service.pin_generation()
        before = {q: list(service.evaluate(q).match_keys) for q in QUERIES}
        faults.install(FaultPlan.parse("seed=1;store-write=torn:1.0"))
        try:
            with pytest.raises(FaultInjected):
                service.apply_updates([one_delta(service, random.Random(22))])
        finally:
            faults.uninstall()
        # Archived, not yet replaced: the archive links the very files the
        # store still serves as current.
        assert list_generations(store) == [outgoing]
        assert read_store_version(store)[0] == outgoing
        assert os.path.samefile(
            generation_document_path(store, outgoing), store / "document.xml"
        )
        with load_catalog(store, generation=outgoing) as archived:
            assert pinned_answers(archived) == before
        # The pinned reader in the crashed process still answers exactly.
        for query in QUERIES:
            assert list(service.evaluate(query, as_of=pin).match_keys) == (
                before[query]
            )
    assert recover_store(store) == 1
    assert read_store_version(store)[0] == outgoing + 1
    assert not os.path.samefile(
        generation_document_path(store, outgoing), store / "document.xml"
    )
    with load_catalog(store, generation=outgoing) as pinned:
        assert pinned_answers(pinned) == before
    with QueryService.open(store) as service:
        for query in QUERIES:
            assert sorted(service.evaluate(query).match_keys) == truth_keys(
                service.catalog.document, query
            )


def archive_by_copy(store) -> None:
    """Rewrite ``store`` as a store whose archive holds copies: every
    archived document a separate file, every manifest (archived and
    current) indented JSON."""
    for generation in list_generations(store):
        document = generation_document_path(store, generation)
        shutil.copyfile(document, document.with_suffix(".copy"))
        os.replace(document.with_suffix(".copy"), document)
    for path in [
        *(generation_manifest_path(store, g) for g in list_generations(store)),
        store / "manifest.json",
    ]:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        path.with_suffix(".indented").write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        os.replace(path.with_suffix(".indented"), path)


def test_store_archived_by_copy_opens_pins_commits_and_reaps(store):
    answers: dict[int, dict] = {}
    with QueryService.open(store) as service:
        for seed in range(3):
            answers[service.generation] = pinned_answers(service.catalog)
            storm(service, 1, seed=30 + seed)
    archive_by_copy(store)
    archived = list_generations(store)
    assert len(archived) == 3
    inodes = {
        os.stat(generation_document_path(store, g)).st_ino for g in archived
    }
    assert os.stat(store / "document.xml").st_ino not in inodes

    with QueryService.open(store) as service:
        current = service.generation
        answers[current] = pinned_answers(service.catalog)
        pin = service.pin_generation()
        storm(service, 2, seed=40)
        assert list_generations(store) == archived + [current, current + 1]
        # The indented manifest was linked, not re-written.
        assert "\n  " in generation_manifest_path(store, current).read_text()
        for generation, expected in answers.items():
            with load_catalog(store, generation=generation) as pinned:
                assert pinned_answers(pinned) == expected
        assert list(service.evaluate(QUERY, as_of=pin).match_keys) == (
            answers[current][QUERY]
        )
        # No archived file shares an inode with the store's current files.
        live = {
            os.stat(store / name).st_ino
            for name in ("document.xml", "manifest.json")
        }
        files = sorted(generations.generation_dir(store).iterdir())
        assert files and not live & {os.stat(f).st_ino for f in files}

        sizes = {
            g: os.stat(generation_manifest_path(store, g)).st_size
            + os.stat(generation_document_path(store, g)).st_size
            for g in list_generations(store)
        }
        budget = sizes[current] + sizes[current + 1]
        report = service.gc_generations(budget_bytes=budget)
        assert report.bytes_before == sum(sizes.values())
        assert set(report.reaped) == set(archived)
        assert report.bytes_after == budget
        assert report.bytes_after == sum(
            os.stat(f).st_size
            for f in generations.generation_dir(store).iterdir()
        )
        assert list_generations(store) == [current, current + 1]
        service.unpin_generation(pin)
    with load_catalog(store, generation=current) as pinned:
        assert pinned_answers(pinned) == answers[current]
