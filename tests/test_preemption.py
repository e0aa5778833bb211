"""Differential tests for preemptible evaluation and continuation tokens.

The contract under test: a ViewJoin run suspended at **any** quantum
boundary and resumed — including through a full serialize → JSON →
deserialize round trip of its state — produces byte-identical output to
the uninterrupted run: the concatenated pages equal the one-shot match
list, and the final quantum's cumulative ``match_count`` and work
``counters`` equal the one-shot ones.  (I/O stats are per-quantum by
design — resuming re-touches pages — and are deliberately outside the
equality contract.)

Plus the failure half of the protocol: damaged tokens die as typed
:class:`ContinuationMalformed` (never a crash), and intact-but-stale
tokens — after a maintenance commit, a worker-pool respawn, a
quarantine, or service shutdown — die as typed
:class:`ContinuationExpired`.
"""

from __future__ import annotations

import base64
import gc
import json

import pytest

from repro.algorithms import engine
from repro.algorithms.preempt import PlanState, QuantumBudget
from repro.datasets import random_trees
from repro.errors import (
    ContinuationExpired,
    ContinuationMalformed,
    EvaluationError,
    StoreCorrupt,
)
from repro.maintenance import DeleteSubtree
from repro.service import QueryService, decode_token, encode_token
from repro.storage.catalog import ViewCatalog
from repro.tpq.parser import parse_pattern

CASES = [
    ("//a[//b]//c", ["//a//c", "//b"]),
    ("//a//b//c", ["//a//b", "//c"]),
]
SCHEMES = ["E", "LE", "LEp"]
MODES = ["memory", "disk"]


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=300, max_depth=9, seed=21)


def roundtrip_state(state: PlanState) -> PlanState:
    """Force the state through its wire shape (JSON) and back."""
    return PlanState.from_payload(json.loads(json.dumps(state.to_payload())))


def run_chain(catalog, query, views, scheme, mode, budget,
              emit_matches=True):
    """Drive a preemptible run to completion, one quantum at a time,
    JSON-round-tripping the state at every boundary."""
    state = None
    pages = []
    quanta = 0
    while True:
        result, state = engine.evaluate_quantum(
            query, catalog, views, "VJ", scheme, mode=mode,
            emit_matches=emit_matches, budget=budget, state=state,
        )
        assert gc.isenabled()  # no quantum suspends with the collector off
        pages.extend(result.matches)
        quanta += 1
        assert quanta < 10_000, "preemptible run failed to terminate"
        if state is None:
            return pages, result, quanta
        state = roundtrip_state(state)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query_text,view_texts", CASES)
def test_every_boundary_resumes_byte_identical(
    doc, scheme, mode, query_text, view_texts
):
    """Sweep the step budget from 1 (suspend at *every* boundary) up:
    each chain must reproduce the one-shot run exactly."""
    query = parse_pattern(query_text)
    views = [parse_pattern(text) for text in view_texts]
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(query, catalog, views, "VJ", scheme, mode=mode)
        assert one.match_count > 0  # the differential must bite
        for k in (1, 2, 3, 7):
            pages, last, quanta = run_chain(
                catalog, query, views, scheme, mode,
                QuantumBudget(max_steps=k),
            )
            if k == 1:
                assert quanta > 2  # actually preempted many times
            assert pages == one.matches
            assert last.match_count == one.match_count
            assert last.counters.as_dict() == one.counters.as_dict()


def test_match_budget_paginates_sorted_output(doc):
    """``max_matches=1``: one match per quantum, in one-shot order,
    each emitted exactly once — the pending-output pagination path."""
    query = parse_pattern("//a[//b]//c")
    views = [parse_pattern("//a//c"), parse_pattern("//b")]
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(query, catalog, views, "VJ", "LEp")
        pages, last, quanta = run_chain(
            catalog, query, views, "LEp", "memory",
            QuantumBudget(max_matches=1),
        )
        assert pages == one.matches
        assert last.match_count == one.match_count
        assert last.counters.as_dict() == one.counters.as_dict()
        assert quanta >= one.match_count  # ≥ one quantum per match


def test_time_budget_always_progresses(doc):
    """A pathologically small wall-time budget still advances ≥ 1 driver
    step per quantum, so the chain terminates."""
    query = parse_pattern("//a//b//c")
    views = [parse_pattern("//a//b"), parse_pattern("//c")]
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(query, catalog, views, "VJ", "LE")
        pages, last, quanta = run_chain(
            catalog, query, views, "LE", "memory",
            QuantumBudget(max_seconds=1e-9),
        )
        assert pages == one.matches
        assert last.counters.as_dict() == one.counters.as_dict()
        assert quanta > 1


def test_count_only_chain_matches_one_shot(doc):
    query = parse_pattern("//a[//b]//c")
    views = [parse_pattern("//a//c"), parse_pattern("//b")]
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(
            query, catalog, views, "VJ", "LEp", emit_matches=False
        )
        pages, last, __ = run_chain(
            catalog, query, views, "LEp", "memory",
            QuantumBudget(max_steps=2), emit_matches=False,
        )
        assert pages == []
        assert last.match_count == one.match_count
        assert last.counters.as_dict() == one.counters.as_dict()


def test_unbounded_quantum_finishes_in_one(doc):
    query = parse_pattern("//a//b")
    views = [parse_pattern("//a//b")]
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(query, catalog, views, "VJ", "LE")
        result, state = engine.evaluate_quantum(
            query, catalog, views, "VJ", "LE"
        )
        assert state is None
        assert result.matches == one.matches
        assert result.counters.as_dict() == one.counters.as_dict()


def test_preemption_is_viewjoin_only(doc):
    with ViewCatalog(doc) as catalog:
        with pytest.raises(EvaluationError):
            engine.evaluate_quantum(
                parse_pattern("//a//b"), catalog,
                [parse_pattern("//a//b")], "TS", "LE",
            )


def test_budget_validation():
    with pytest.raises(EvaluationError):
        QuantumBudget(max_steps=0)
    with pytest.raises(EvaluationError):
        QuantumBudget(max_matches=0)
    with pytest.raises(EvaluationError):
        QuantumBudget(max_seconds=-1.0)
    assert not QuantumBudget().bounded
    assert QuantumBudget(max_steps=1).bounded
    assert QuantumBudget.from_dict(None) is None
    with pytest.raises(ContinuationMalformed):
        QuantumBudget.from_dict({"max_steps": "three"})


# -- service-level tokens ------------------------------------------------------


@pytest.fixture()
def service(doc):
    with ViewCatalog(doc) as catalog:
        svc = QueryService(catalog)
        svc.register("//a//c")
        svc.register("//b")
        yield svc
        svc.close()


QUERY = "//a[//b]//c"


def drain_tokens(svc, outcome):
    pages = list(outcome.page)
    while not outcome.done:
        outcome = svc.resume_quantum(outcome.token)
        pages.extend(outcome.page)
    return pages, outcome


def test_service_chain_equals_one_shot(service):
    one = service.evaluate(QUERY)
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_steps=2)
    )
    assert outcome.preempted and not outcome.done
    pages, last = drain_tokens(service, outcome)
    assert pages == list(one.match_keys)
    assert last.match_count == one.match_count
    assert last.counters.as_dict() == one.counters.as_dict()
    assert last.quanta > 1
    metrics = service.continuation_metrics()
    assert metrics["completed"] == 1
    assert metrics["active"] == 0


def test_finished_token_expires(service):
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_steps=2)
    )
    last_token = outcome.token
    while not outcome.done:
        last_token = outcome.token
        outcome = service.resume_quantum(outcome.token)
    assert outcome.token is None
    with pytest.raises(ContinuationExpired):
        service.resume_quantum(last_token)  # the chain already finished


def test_unbudgeted_quantum_is_done(service):
    one = service.evaluate(QUERY)
    outcome = service.evaluate_quantum(QUERY)
    assert outcome.done and outcome.token is None
    assert outcome.page == list(one.match_keys)


def test_maintenance_commit_pins_tokens(service):
    """MVCC (DESIGN.md §16): a commit no longer expires suspended
    tokens — the chain keeps resuming against its pinned pre-commit
    generation, byte-identical to an uninterrupted run."""
    one = service.evaluate(QUERY)
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_steps=1)
    )
    assert not outcome.done
    doc = service.catalog.document
    victim = [n for n in doc.nodes if n.tag == "c"][0]
    report = service.apply_updates([DeleteSubtree(root_start=victim.start)])
    assert report.deltas == 1
    assert service.resilience_metrics()["pinned_generations"] == 1
    pages, last = drain_tokens(service, outcome)
    assert pages == list(one.match_keys)
    assert last.counters.as_dict() == one.counters.as_dict()
    # The chain is done: nothing references the old generation now.
    assert service.resilience_metrics()["pinned_generations"] == 0
    # Fresh reads see the new generation: the delete shifted region
    # labels, so the post-commit answer differs from the pinned one.
    fresh = service.evaluate(QUERY)
    assert fresh.match_keys != one.match_keys


def test_pool_respawn_keeps_live_sessions(service):
    """Satellite: a pool respawn only drops sessions whose generation
    was reaped; a suspended chain on a resolvable generation survives
    and finishes byte-identically (its state is in-process)."""
    one = service.evaluate(QUERY)
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_steps=1)
    )
    assert not outcome.done
    service._discard_executor()  # what a BrokenProcessPool recovery does
    pages, last = drain_tokens(service, outcome)
    assert pages == list(one.match_keys)
    assert last.counters.as_dict() == one.counters.as_dict()
    assert service.continuation_metrics()["purged"] == 0


def test_close_expires_tokens(doc):
    with ViewCatalog(doc) as catalog:
        svc = QueryService(catalog)
        svc.register("//a//c")
        svc.register("//b")
        outcome = svc.evaluate_quantum(
            QUERY, budget=QuantumBudget(max_steps=1)
        )
        svc.close()
        with pytest.raises(ContinuationExpired):
            svc.resume_quantum(outcome.token)


def test_foreign_token_rejected(doc, service):
    """A token minted by another service instance is not live here:
    the session registry is per-instance state, so the sid misses."""
    with ViewCatalog(doc) as catalog:
        other = QueryService(catalog)
        other.register("//a//c")
        other.register("//b")
        foreign = other.evaluate_quantum(
            QUERY, budget=QuantumBudget(max_steps=1)
        )
        other.close()
    with pytest.raises(ContinuationExpired):
        service.resume_quantum(foreign.token)


def test_non_viewjoin_plan_answers_whole(doc):
    """A query the planner answers without ViewJoin yields one done,
    non-preemptible quantum (the protocol degrades to one-shot)."""
    with ViewCatalog(doc) as catalog:
        svc = QueryService(catalog)
        svc.planner.algorithm = engine.Algorithm.TWIGSTACK
        svc.register("//a//b")
        outcome = svc.evaluate_quantum(
            "//a//b", budget=QuantumBudget(max_steps=1)
        )
        assert outcome.done and not outcome.preemptible
        assert outcome.token is None
        one = svc.evaluate("//a//b")
        assert outcome.page == list(one.match_keys)
        svc.close()


def test_refuted_query_is_single_done_quantum(service):
    outcome = service.evaluate_quantum(
        "//zzz//qqq", budget=QuantumBudget(max_steps=1)
    )
    assert outcome.done and outcome.refuted and outcome.page == []


def test_store_corrupt_mid_chain_degrades(service, monkeypatch):
    """StoreCorrupt during a resumed quantum: the chain ends in one
    degraded done quantum re-answered from base views."""
    one = service.evaluate(QUERY)
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_steps=1)
    )
    assert not outcome.done

    from repro.service import core as core_mod

    def corrupt(*args, **kwargs):
        raise StoreCorrupt("injected", views=("v_1",), pages=(0,))

    monkeypatch.setattr(core_mod, "engine_evaluate_quantum", corrupt)
    final = service.resume_quantum(outcome.token)
    assert final.done and final.degraded
    assert final.page == list(one.match_keys)  # degraded ≠ wrong
    assert final.quanta == 2


# -- token fuzzing -------------------------------------------------------------


def make_token(service):
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_steps=1)
    )
    assert outcome.token
    return outcome.token


def test_fuzz_bit_flips_are_typed(service):
    """Flip a byte at every position of the decoded blob: decode either
    rejects it typed or (for the rare benign flip) yields a payload the
    service still validates — never any other exception."""
    token = make_token(service)
    blob = bytearray(base64.urlsafe_b64decode(token.encode("ascii")))
    for position in range(len(blob)):
        damaged = bytes(blob[:position]) + bytes(
            [blob[position] ^ 0x41]
        ) + bytes(blob[position + 1:])
        mutated = base64.urlsafe_b64encode(damaged).decode("ascii")
        with pytest.raises((ContinuationMalformed, ContinuationExpired)):
            service.resume_quantum(mutated)


def test_fuzz_truncations_are_typed(service):
    token = make_token(service)
    for cut in (0, 1, 4, 8, len(token) // 2, len(token) - 1):
        with pytest.raises(ContinuationMalformed):
            service.resume_quantum(token[:cut])


def test_fuzz_garbage_is_typed(service):
    for garbage in ("", "????", "not a token", "AAAA", "ا" * 40,
                    "\x00\x01\x02", token_of_junk()):
        with pytest.raises(ContinuationMalformed):
            service.resume_quantum(garbage)


def token_of_junk() -> str:
    return base64.urlsafe_b64encode(b"VJCT" + b"\x07" * 40).decode("ascii")


def test_fuzz_valid_codec_bad_shape_is_typed(service):
    """A structurally intact token (magic, checksum) whose payload
    violates the schema dies typed at the service boundary."""
    good = decode_token(make_token(service))
    mutations = [
        {},  # everything missing
        {**good, "sid": 7},
        {**good, "quanta": 0},
        {**good, "algorithm": "TS"},
        {**good, "emit": "yes"},
        {**good, "views": []},
        {**good, "views": [["//a//c", 1]]},
        {**good, "io": [1, 2]},
        {**good, "io": [1, 2, -3]},
        {**good, "query": "///"},
        {**good, "scheme": "XX"},
        {**good, "mode": 3},
        {**good, "budget": {"max_steps": 0}},
        {**good, "state": None},
        {**good, "state": {"v": 99}},
        {**good, "state": {**good["state"], "positions": {"a": -1}}},
        {**good, "state": {**good["state"], "counters": {"bogus": 1}}},
    ]
    for payload in mutations:
        with pytest.raises(ContinuationMalformed):
            service.resume_quantum(encode_token(payload))


def owing_payload(service):
    """A decoded token whose state still owes matches of a flush."""
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_matches=1)
    )
    while not decode_token(outcome.token)["state"]["pools"]:
        outcome = service.resume_quantum(outcome.token)
    return decode_token(outcome.token)


def test_fuzz_owed_output_fields_are_typed(service):
    """The factorized surplus (pools + offset) is validated like the
    rest of the snapshot: a tampered one dies typed, never inside the
    enumerator."""
    good = owing_payload(service)
    state = good["state"]
    assert state["v"] == 3 and state["offset"] >= 1
    service.resume_quantum(encode_token(good))  # the untouched one resumes
    good = owing_payload(service)
    state = good["state"]
    # a pool is [tag, positions]: indexes into the tag's list, ascending
    tag, positions = next(
        pool for pool in state["pools"] if len(pool[1]) >= 2
    )
    others = [pool for pool in state["pools"] if pool[0] != tag]
    swapped = [positions[1], positions[0], *positions[2:]]
    mutations = [
        {**state, "offset": 10**9},                       # past total
        {**state, "offset": -1},
        {**state, "offset": "1"},
        {**state, "pools": [], "offset": state["offset"]},  # owes nothing
        {**state, "pools": others},                       # a tag missing
        {**state, "pools": state["pools"] + [["zzz", []]]},  # not a query tag
        {**state, "pools": others + [[tag, swapped]]},     # out of order
        {**state, "pools": others + [[tag, [positions[0]] * 2]]},  # repeated
        {**state, "pools": others + [[tag, positions + [10**6]]]},  # past end
        {**state, "pools": others + [[tag, [-1] + positions]]},
        {**state, "pools": others + [[tag, ["x"] * 3]]},
        {**state, "pools": others + [[tag, [True]]]},
        {**state, "pools": others + [[tag, positions, positions]]},
        {**state, "pools": "everything"},
        {key: value for key, value in state.items() if key != "pools"},
        # the open partition's candidates are positions too
        {**state, "buffered": [["a", [10**6]]]},          # past end
        {**state, "buffered": [["a", [3, 3]]]},           # not increasing
        {**state, "buffered": [["zzz", [0]]]},            # no such list
        {**state, "buffered": [["a", "E", 3, [0, 9, 1]]]},  # a v2 entry list
        # what STATE_VERSION 2 carried: pools of packed element entries
        {**state, "v": 2, "pools": [
            [name, "E", 3, [0, 1, 0] * len(held)]
            for name, held in state["pools"]
        ]},
        # what STATE_VERSION 1 carried: expanded pending matches
        {**{k: v for k, v in state.items() if k not in ("pools", "offset")},
         "v": 1, "pending": [0, []]},
    ]
    for mutated in mutations:
        with pytest.raises(ContinuationMalformed):
            service.resume_quantum(encode_token({**good, "state": mutated}))


def test_token_size_is_bounded_by_the_buffer(service):
    """A page bound far below the answer: every token of the chain
    carries the flushed pools and one rank, not the matches still owed,
    so its size does not shrink as they are paid out."""
    one = service.evaluate(QUERY)
    outcome = service.evaluate_quantum(
        QUERY, budget=QuantumBudget(max_matches=1)
    )
    pages, sizes = list(outcome.page), []
    while not outcome.done:
        sizes.append(len(outcome.token))
        outcome = service.resume_quantum(outcome.token)
        assert len(outcome.page) == 1
        pages.extend(outcome.page)
    assert pages == list(one.match_keys)
    assert max(sizes) < 2 * min(sizes)


def test_fuzz_tampered_position_is_typed_or_expired(service):
    """Recomputing the checksum over a tampered cursor position must
    still die typed (the position exceeds the list)."""
    good = decode_token(make_token(service))
    state = dict(good["state"])
    positions = [[tag, 10**9] for tag, __ in state["positions"]]
    state["positions"] = positions
    with pytest.raises((ContinuationMalformed, ContinuationExpired)):
        service.resume_quantum(encode_token({**good, "state": state}))
