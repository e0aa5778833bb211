"""Integration tests for the asyncio serving front end.

Each test runs a real :class:`ViewJoinServer` on a daemon thread
(:class:`BackgroundServer`) and speaks actual HTTP/1.1 to it through
``http.client`` — the same wire path ``curl`` takes in the README
walkthrough.  Covered: pagination that exhausts exactly once, per-tenant
quota enforcement with honest ``Retry-After``, load shedding under
concurrent clients (and under breaker quarantine), graceful drain, and
``degraded=True`` surfacing in the HTTP body.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.datasets import random_trees
from repro.errors import StoreCorrupt
from repro.server import BackgroundServer, ServerConfig
from repro.service import QueryService
from repro.storage.catalog import ViewCatalog

QUERY = "//a[//b]//c"


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=300, max_depth=9, seed=21)


@pytest.fixture()
def service(doc):
    with ViewCatalog(doc) as catalog:
        svc = QueryService(catalog)
        svc.register("//a//c")
        svc.register("//b")
        yield svc
        svc.close()


def request(port, method, path, body=None, headers=None, timeout=15):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method, path,
            json.dumps(body) if body is not None else None,
            headers or {},
        )
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), raw
    finally:
        conn.close()


def request_json(port, method, path, body=None, headers=None):
    status, hdrs, raw = request(port, method, path, body, headers)
    return status, hdrs, json.loads(raw)


STEPPED = ServerConfig(port=0, quantum_ms=0, quantum_steps=2,
                       quantum_matches=0)


def test_pagination_exhausts_exactly_once(service):
    one = service.evaluate(QUERY)
    with BackgroundServer(service, STEPPED) as bg:
        status, __, data = request_json(
            bg.port, "POST", "/query", {"query": QUERY}
        )
        assert status == 200 and not data["done"] and data["token"]
        pages = [tuple(p) for p in data["page"]]
        last_token = data["token"]
        while not data["done"]:
            last_token = data["token"]
            status, __, data = request_json(
                bg.port, "GET", "/next?token=" + data["token"]
            )
            assert status == 200
            pages.extend(tuple(p) for p in data["page"])
        assert pages == list(one.match_keys)
        assert data["match_count"] == one.match_count
        assert data["quanta"] > 1 and data["token"] is None
        # The chain is spent: replaying its final live token is Gone.
        status, __, data = request_json(
            bg.port, "GET", "/next?token=" + last_token
        )
        assert status == 410
        assert "error" in data


def test_ndjson_stream_equals_one_shot(service):
    one = service.evaluate(QUERY)
    with BackgroundServer(service, STEPPED) as bg:
        status, headers, raw = request(
            bg.port, "POST", "/query", {"query": QUERY, "stream": True}
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in raw.splitlines()]
        assert len(lines) > 1 and lines[-1]["done"]
        pages = [tuple(p) for line in lines for p in line["page"]]
        assert pages == list(one.match_keys)
        assert all("token" not in line for line in lines)


def test_quota_throttles_per_tenant(service):
    config = ServerConfig(port=0, quantum_ms=0, quantum_steps=0,
                          quantum_matches=0, tenant_rate=0.001,
                          tenant_burst=1)
    with BackgroundServer(service, config) as bg:
        ok, __, __ = request_json(
            bg.port, "POST", "/query", {"query": QUERY},
            headers={"X-Tenant": "alice"},
        )
        assert ok == 200
        status, headers, data = request_json(
            bg.port, "POST", "/query", {"query": QUERY},
            headers={"X-Tenant": "alice"},
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "alice" in data["error"]
        # Quota isolation: a different tenant is untouched.
        other, __, __ = request_json(
            bg.port, "POST", "/query", {"query": QUERY},
            headers={"X-Tenant": "bob"},
        )
        assert other == 200
        metrics = bg.server.metrics()
        assert metrics["quotas"]["throttled"] == 1
        assert metrics["quotas"]["tenants"] == 2


def slow_quantum(service, delay=0.6):
    """Wrap the service's quantum entry point with a sleep, to hold a
    concurrency slot long enough for a second client to collide."""
    original = service.evaluate_quantum

    def wrapped(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    return wrapped


def test_concurrent_clients_shed_at_limit(service, monkeypatch):
    monkeypatch.setattr(service, "evaluate_quantum", slow_quantum(service))
    config = ServerConfig(port=0, quantum_ms=0, quantum_steps=0,
                          quantum_matches=0, max_inflight=1)
    with BackgroundServer(service, config) as bg:
        results = []

        def client():
            results.append(request_json(
                bg.port, "POST", "/query", {"query": QUERY}
            ))

        first = threading.Thread(target=client)
        first.start()
        time.sleep(0.2)  # let the first request take the only slot
        second = threading.Thread(target=client)
        second.start()
        first.join(timeout=15)
        second.join(timeout=15)
        statuses = sorted(status for status, __, __ in results)
        assert statuses == [200, 429]
        shed = next(h for s, h, __ in results if s == 429)
        assert "Retry-After" in shed
        assert bg.server.shed_concurrency == 1


def test_quarantine_shrinks_admission(service):
    config = ServerConfig(port=0, max_inflight=8)
    with BackgroundServer(service, config) as bg:
        __, __, health = request_json(bg.port, "GET", "/health")
        assert health["effective_limit"] == 8
        service.breaker.record_failure("v_1", "store-corrupt")
        __, __, health = request_json(bg.port, "GET", "/health")
        assert health["effective_limit"] == 4  # halved per quarantined view
        assert health["quarantined_views"] == ["v_1"]
        service.breaker.reset()


def test_graceful_drain(service, monkeypatch):
    monkeypatch.setattr(service, "evaluate_quantum", slow_quantum(service))
    config = ServerConfig(port=0, quantum_ms=0, quantum_steps=0,
                          quantum_matches=0, drain_grace_s=10.0)
    with BackgroundServer(service, config) as bg:
        results = []

        def client():
            results.append(request_json(
                bg.port, "POST", "/query", {"query": QUERY}
            ))

        inflight = threading.Thread(target=client)
        inflight.start()
        time.sleep(0.2)  # in-flight before the drain begins
        port = bg.port
        drainer = threading.Thread(target=bg.drain)
        drainer.start()
        time.sleep(0.1)
        status, headers, __ = request_json(
            port, "POST", "/query", {"query": QUERY}
        )
        assert status == 503  # new work is shed while draining
        assert "Retry-After" in headers
        inflight.join(timeout=15)
        drainer.join(timeout=15)
        assert [s for s, __, __ in results] == [200]
        assert bg.server.shed_draining == 1


def test_degraded_surfaced_over_http(service, monkeypatch):
    one = service.evaluate(QUERY)
    from repro.service import core as core_mod

    def corrupt(*args, **kwargs):
        raise StoreCorrupt("injected", views=("v_1",), pages=(0,))

    monkeypatch.setattr(core_mod, "engine_evaluate_quantum", corrupt)
    with BackgroundServer(service, STEPPED) as bg:
        status, __, data = request_json(
            bg.port, "POST", "/query", {"query": QUERY}
        )
        assert status == 200
        assert data["degraded"] is True and data["done"] is True
        assert [tuple(p) for p in data["page"]] == list(one.match_keys)


def test_error_mapping(service):
    with BackgroundServer(service, STEPPED) as bg:
        status, __, __ = request_json(bg.port, "POST", "/query", {})
        assert status == 400  # missing query
        status, __, __ = request_json(
            bg.port, "POST", "/query", {"query": "///"}
        )
        assert status == 400  # parse error
        status, __, __ = request_json(
            bg.port, "GET", "/next?token=not-a-token"
        )
        assert status == 400  # malformed token
        status, __, __ = request_json(bg.port, "GET", "/nowhere")
        assert status == 404


def test_metrics_shape(service):
    with BackgroundServer(service, STEPPED) as bg:
        request_json(bg.port, "POST", "/query", {"query": QUERY})
        status, __, metrics = request_json(bg.port, "GET", "/metrics")
        assert status == 200
        assert metrics["server"]["requests"] >= 2
        assert metrics["continuations"]["issued"] == 1
        assert "quarantined_views" in metrics["resilience"]
        assert metrics["server"]["responses"]["200"] >= 1


# -- the shipped defaults, on answers far larger than a page ------------------


@pytest.fixture(scope="module")
def xmark_service():
    from repro.datasets import xmark
    from repro.workloads import xmark as queries

    doc = xmark.generate(scale=queries.STANDARD_SCALE, seed=42)
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:
            for name in HEAVY:
                for view in queries.BY_NAME[name].views:
                    svc.register(view)
            yield svc


HEAVY = ("Q8", "Q9", "Q11")


@pytest.mark.parametrize("name", HEAVY)
def test_heavy_query_pages_under_default_config(xmark_service, name):
    """``ServerConfig()`` as shipped (1024-match pages): a 50 000-match
    answer pages to ``done`` over real HTTP.  Its surplus stays
    factorized, so the token is the flushed buffer, as list positions,
    and a rank — 1.6-1.7 KB for these queries (7.1-7.3 KB while it
    carried labels and pointers), and no larger while more is owed."""
    from repro.workloads import xmark as queries

    text = queries.BY_NAME[name].query.to_xpath()
    one = xmark_service.evaluate(text)
    assert one.match_count > 50_000
    with BackgroundServer(xmark_service, ServerConfig(port=0)) as bg:
        status, __, data = request_json(
            bg.port, "POST", "/query", {"query": text}
        )
        assert status == 200
        pages = [tuple(p) for p in data["page"]]
        tokens = []
        while not data["done"]:
            tokens.append(len(data["token"]))
            status, __, data = request_json(
                bg.port, "GET", "/next?token=" + data["token"]
            )
            assert status == 200, data
            assert 0 < len(data["page"]) <= 1024
            pages.extend(tuple(p) for p in data["page"])
    assert pages == list(one.match_keys)
    assert data["match_count"] == one.match_count
    assert data["counters"] == one.counters.as_dict()
    assert len(tokens) + 1 >= one.match_count // 1024  # one page each
    assert max(tokens) < 2 * 1024
    assert max(tokens) - min(tokens) < 64


def test_oversized_request_head_is_431(service):
    """A request line beyond the stream limit gets a typed JSON answer,
    not a dropped connection."""
    with BackgroundServer(service, STEPPED) as bg:
        status, __, data = request_json(
            bg.port, "GET", "/next?token=" + "A" * 200_000
        )
        assert status == 431
        assert "limit" in data["error"]
        assert bg.server.metrics()["server"]["responses"][431] == 1
        status, __, __ = request_json(bg.port, "GET", "/health")
        assert status == 200


def test_chunked_page_is_one_json_dumps(xmark_service):
    """The body the server writes — a long page encoded in chunks — is
    byte for byte ``json.dumps`` of the payload, with and without the
    token."""
    import asyncio

    from repro.algorithms.preempt import QuantumBudget
    from repro.server import ViewJoinServer, outcome_payload

    def dumps(payload):
        return json.dumps(payload, separators=(",", ":")).encode()

    from repro.workloads import xmark as queries

    server = ViewJoinServer(xmark_service)
    text = queries.BY_NAME["Q8"].query.to_xpath()
    for size in (10_000, 4096, 7):   # three chunks, one chunk, a few
        outcome = xmark_service.evaluate_quantum(
            text, budget=QuantumBudget(max_matches=size)
        )
        assert outcome.token and len(outcome.page) == size
        payload = outcome_payload(outcome)
        assert payload["page"] is outcome.page
        body = b"".join(asyncio.run(server._outcome_pieces(outcome)))
        assert body == dumps(payload)
        del payload["token"]
        line = b"".join(
            asyncio.run(server._outcome_pieces(outcome, token=False))
        )
        assert line == dumps(payload)
    empty = xmark_service.evaluate_quantum("//zzz//qqq")
    assert b"".join(
        asyncio.run(server._outcome_pieces(empty))
    ) == dumps(outcome_payload(empty))
    asyncio.run(server.aclose())
