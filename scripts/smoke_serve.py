"""CI smoke: the preemptible serving stack, end to end, every run.

Starts a real :class:`ViewJoinServer` on a loopback port with an
aggressive 1 ms wall-time quantum, pages a query through ``POST /query``
→ ``GET /next`` over actual HTTP until ``done``, and asserts the
protocol's equality contract: the concatenated pages and the final
cumulative counters must be byte-identical to the service's one-shot
answer.  Also checks the NDJSON streaming path, and that a replayed
spent token dies as ``410 Gone``.  A second leg serves a 50 000-match
XMark query under the shipped ``ServerConfig()`` (1024-match pages): the
same equality contract, and every continuation token — the flushed
buffer plus a rank, not the matches still owed — under a fixed ceiling.

The whole script runs under a hard wall-clock guard (a serving
regression that hangs must fail CI, not wedge it) on top of ci.sh's
outer ``timeout``.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading

HARD_TIMEOUT_S = 90.0
#: A token rides in a request line (asyncio's stream limit is 64 KiB) and
#: carries candidates as list positions: the heavy XMark queries' largest
#: is 1.7 KB (7.3 KB while it carried their labels and pointers).
TOKEN_CEILING = 2 * 1024


def _request(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            method, path,
            json.dumps(body) if body is not None else None,
            headers or {},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def _page_to_done(port, query):
    """``POST /query`` then ``GET /next`` until ``done``: the pages, the
    last response, and every token seen on the way."""
    status, data = _request(port, "POST", "/query", {"query": query})
    assert status == 200, (status, data)
    pages = [tuple(p) for p in data["page"]]
    tokens = []
    while not data["done"]:
        tokens.append(data["token"])
        status, data = _request(port, "GET", "/next?token=" + data["token"])
        assert status == 200, (status, data)
        pages.extend(tuple(p) for p in data["page"])
    return pages, data, tokens


def page_bounded_leg() -> str:
    """Default config, an answer fifty pages long."""
    from repro.datasets import xmark
    from repro.server import BackgroundServer, ServerConfig
    from repro.service import QueryService
    from repro.storage.catalog import ViewCatalog
    from repro.workloads import xmark as queries

    spec = queries.BY_NAME["Q8"]
    query = spec.query.to_xpath()
    doc = xmark.generate(scale=queries.STANDARD_SCALE, seed=11)
    with ViewCatalog(doc) as catalog, QueryService(catalog) as service:
        for view in spec.views:
            service.register(view)
        one = service.evaluate(query)
        config = ServerConfig(port=0)
        assert one.match_count > 20 * config.quantum_matches
        with BackgroundServer(service, config) as bg:
            pages, data, tokens = _page_to_done(bg.port, query)
    assert pages == list(one.match_keys), (
        f"paged {len(pages)} keys != one-shot {len(one.match_keys)}"
    )
    assert data["match_count"] == one.match_count
    assert data["counters"] == one.counters.as_dict(), (
        "cumulative counters diverged from the one-shot run"
    )
    largest = max(map(len, tokens))
    assert largest < TOKEN_CEILING, (
        f"a {largest}-byte continuation token: the surplus of a flush"
        " must stay factorized, as positions"
    )
    return (
        f"{len(pages)} matches in {len(tokens) + 1} default-config pages,"
        f" largest token {largest} B"
    )


def main() -> int:
    from repro.datasets import random_trees
    from repro.server import BackgroundServer, ServerConfig
    from repro.service import QueryService
    from repro.storage.catalog import ViewCatalog

    query = "//a[//b]//c"
    doc = random_trees.generate(size=400, max_depth=9, seed=11)
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            service.register("//a//c")
            service.register("//b")
            one = service.evaluate(query)
            assert one.match_count > 0, "smoke query must match something"

            config = ServerConfig(
                port=0, quantum_ms=1.0, quantum_steps=0, quantum_matches=8
            )
            with BackgroundServer(service, config) as bg:
                pages, data, tokens = _page_to_done(bg.port, query)
                spent = tokens[-1] if tokens else None

                assert pages == list(one.match_keys), (
                    f"paged {len(pages)} keys != one-shot"
                    f" {len(one.match_keys)}"
                )
                assert data["match_count"] == one.match_count
                assert data["counters"] == one.counters.as_dict(), (
                    "cumulative counters diverged from the one-shot run"
                )
                quanta = data["quanta"]
                assert quanta > 1, "1 ms quantum never preempted"

                if spent is not None:
                    status, __ = _request(
                        bg.port, "GET", "/next?token=" + spent
                    )
                    assert status == 410, (
                        f"spent token must be Gone, got {status}"
                    )

                # NDJSON streaming drives the same chain server-side.
                conn = http.client.HTTPConnection(
                    "127.0.0.1", bg.port, timeout=30
                )
                conn.request(
                    "POST", "/query",
                    json.dumps({"query": query, "stream": True}),
                )
                resp = conn.getresponse()
                lines = [json.loads(l) for l in resp.read().splitlines()]
                conn.close()
                streamed = [
                    tuple(p) for line in lines for p in line["page"]
                ]
                assert streamed == list(one.match_keys)
                assert lines[-1]["done"]

                status, health = _request(bg.port, "GET", "/health")
                assert status == 200 and health["status"] == "ok"

    paged = page_bounded_leg()
    print(
        f"serve smoke OK: {len(pages)} matches over {quanta} quanta"
        f" (1 ms quantum), pages + counters == one-shot,"
        f" spent token -> 410, NDJSON stream equal; {paged}"
    )
    return 0


if __name__ == "__main__":
    # The watchdog is a separate thread so a wedged HTTP exchange (the
    # failure mode this smoke exists to catch) cannot outlive CI.
    def _die():
        print(f"serve smoke HUNG (> {HARD_TIMEOUT_S:.0f}s)", flush=True)
        import os

        os._exit(2)

    watchdog = threading.Timer(HARD_TIMEOUT_S, _die)
    watchdog.daemon = True
    watchdog.start()
    try:
        sys.exit(main())
    finally:
        watchdog.cancel()
