"""The asyncio serving front end over :class:`~repro.service.QueryService`.

A deliberately small HTTP/1.1 server on stdlib ``asyncio.start_server``
(no third-party frameworks — the container pins its dependency set) that
turns the service's preemptible quantum API into a paginated wire
protocol:

* ``POST /query``  — body ``{"query": "//a[//b]//c"}``; runs the first
  quantum under the configured budget and answers with the page plus an
  opaque continuation ``token`` when suspended.  ``"stream": true``
  instead answers NDJSON, one line per quantum, driving the resume loop
  server-side.
* ``GET /next?token=…`` — resumes a suspended query for one quantum.
* ``GET /metrics`` / ``GET /health`` — operator surface, including the
  service's continuation and resilience counters.

Quanta execute on a **single-thread** executor: :class:`QueryService` is
not thread-safe, so one lane serializes all engine work — and because
each unit of work is one *bounded* quantum, the lane is round-robin fair
across concurrent clients instead of head-of-line blocked behind a heavy
query (the ``serve_http`` workload of ``benchmarks/e2e/run.py``
measures exactly this).  The JSON of a long page is lane work as well,
a chunk of matches per turn: the loop thread only moves bytes, and no
second busy thread competes with the running quantum for the
interpreter lock.

Load shedding is wired to the PR 5 circuit breaker: the effective
concurrency limit halves per quarantined view, so a store that is
actively losing views sheds traffic (``429`` + ``Retry-After``) before
it melts.  ``drain()`` stops admissions (``503``), lets in-flight quanta
finish within a grace period, then closes the listener.

This package lives *outside* the engine's determinism boundary
(``repro.lint`` RL103 covers ``algorithms/``, ``service/``,
``storage/``): wall-clock reads here are free, while the quantum budget
the server hands the engine remains the only clock the engine sees.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from repro.algorithms.preempt import QuantumBudget
from repro.errors import (
    ContinuationExpired,
    ContinuationMalformed,
    ReproError,
    ServiceError,
)
from repro.server.quota import TenantQuotas
from repro.service import QuantumOutcome, QueryService

_MAX_REQUEST_BYTES = 1 << 20
_SERVER_NAME = "viewjoin-serve"
#: Matches per ``json.dumps`` call when a page is encoded.  A longer
#: page is encoded on the engine lane, one chunk per turn: a chunk is
#: 2.5 ms of interpreter lock, a quarter of a 10 ms quantum, so a
#: 50 000-match page holds up neither the loop nor another client's
#: quantum for more than that.  (Sizing on ``serve_http``, light p50 / heavy p50 in ms:
#: 2048 -> 11 / 260, 4096 -> 15 / 215, 8192 -> 22 / 170; parent 130 / 225.)
_PAGE_CHUNK = 4096
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 410: "Gone",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for :class:`ViewJoinServer`.

    ``quantum_ms``/``quantum_steps``/``quantum_matches`` compose into the
    :class:`QuantumBudget` every request runs under (0 disables that
    axis; all-zero disables preemption and queries run to completion).
    ``tenant_rate`` ≤ 0 disables quotas.
    """

    host: str = "127.0.0.1"
    port: int = 8399
    quantum_ms: float = 50.0
    quantum_steps: int = 0
    quantum_matches: int = 1024
    max_inflight: int = 8
    tenant_rate: float = 0.0
    tenant_burst: int = 20
    drain_grace_s: float = 5.0

    def budget(self) -> QuantumBudget | None:
        max_seconds = self.quantum_ms / 1000.0 if self.quantum_ms > 0 else None
        max_steps = self.quantum_steps if self.quantum_steps > 0 else None
        max_matches = (
            self.quantum_matches if self.quantum_matches > 0 else None
        )
        if max_seconds is None and max_steps is None and max_matches is None:
            return None
        return QuantumBudget(
            max_steps=max_steps, max_seconds=max_seconds,
            max_matches=max_matches,
        )


class ViewJoinServer:
    """Serve one :class:`QueryService` over HTTP.

    The server borrows the service (it does not own or close it); callers
    create both and tie their lifetimes, as ``viewjoin serve`` does.
    """

    def __init__(self, service: QueryService, config: ServerConfig | None = None):
        self.service = service
        self.config = config or ServerConfig()
        self.quotas = TenantQuotas(
            self.config.tenant_rate, self.config.tenant_burst
        )
        self._budget = self.config.budget()
        self._server: asyncio.base_events.Server | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="vj-quantum"
        )
        self._inflight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self.requests = 0
        self.shed_quota = 0
        self.shed_concurrency = 0
        self.shed_draining = 0
        self.responses: dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: shed new work, finish in-flight quanta.

        New requests observe ``503`` the moment draining starts; quanta
        already running get ``drain_grace_s`` to finish before the
        listener closes regardless.
        """
        self._draining = True
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_grace_s
            )
        except asyncio.TimeoutError:
            pass
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    # -- request plumbing ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            method, target, headers, body = request
            self.requests += 1
            await self._route(writer, method, target, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # repro-lint: disable=RL105 (last-resort 500 guard: a request handler bug must answer 500, never kill the accept loop)
            try:
                await self._send_json(
                    writer, 500, {"error": f"internal error: {exc}"}
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            # Take the rest of the oversized head off the socket first:
            # closing on unread data resets the connection, and the
            # client would never see the answer.
            seen = b""
            for _ in range(_MAX_REQUEST_BYTES >> 16):
                chunk = await reader.read(1 << 16)
                if not chunk or b"\r\n\r\n" in seen + chunk:
                    break
                seen = chunk[-3:]
            await self._send_json(
                writer, 431,
                {"error": "request head exceeds the server's limit"},
            )
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_REQUEST_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _route(self, writer, method, target, headers, body) -> None:
        url = urlsplit(target)
        path = url.path
        if method == "GET" and path == "/health":
            await self._send_json(writer, 200, self._health())
            return
        if method == "GET" and path == "/metrics":
            await self._send_json(writer, 200, self.metrics())
            return
        if self._draining:
            self.shed_draining += 1
            await self._send_json(
                writer, 503, {"error": "draining"}, {"Retry-After": "1"}
            )
            return
        tenant = headers.get("x-tenant", "public")
        retry_after = self.quotas.check(tenant)
        if retry_after:
            self.shed_quota += 1
            await self._send_json(
                writer, 429,
                {"error": f"tenant {tenant!r} over quota"},
                {"Retry-After": str(int(retry_after))},
            )
            return
        if method == "POST" and path == "/query":
            await self._handle_query(writer, body)
            return
        if method == "GET" and path == "/next":
            token = parse_qs(url.query).get("token", [""])[0]
            await self._handle_next(writer, token)
            return
        await self._send_json(
            writer, 404, {"error": f"no route {method} {path}"}
        )

    # -- routes ----------------------------------------------------------------

    async def _handle_query(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ServiceError("body must be a JSON object")
            query = payload.get("query")
            if not isinstance(query, str) or not query:
                raise ServiceError("body must carry a non-empty 'query'")
            mode = payload.get("mode", "memory")
            stream = bool(payload.get("stream", False))
        except (ValueError, UnicodeDecodeError, ServiceError) as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        if not self._admit():
            await self._send_json(
                writer, 429,
                {"error": "server at concurrency limit"},
                {"Retry-After": "1"},
            )
            return
        try:
            if stream:
                await self._stream_query(writer, query, mode)
                return
            outcome = await self._run_quantum(
                lambda: self.service.evaluate_quantum(
                    query, mode=mode, budget=self._budget
                )
            )
            body = await self._outcome_pieces(outcome)  # lane work too
        except ReproError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        finally:
            self._release()
        await self._send(writer, 200, body)

    async def _handle_next(self, writer, token: str) -> None:
        if not token:
            await self._send_json(
                writer, 400, {"error": "missing token query parameter"}
            )
            return
        if not self._admit():
            await self._send_json(
                writer, 429,
                {"error": "server at concurrency limit"},
                {"Retry-After": "1"},
            )
            return
        try:
            outcome = await self._run_quantum(
                lambda: self.service.resume_quantum(token)
            )
            body = await self._outcome_pieces(outcome)  # lane work too
        except ContinuationMalformed as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        except ContinuationExpired as exc:
            await self._send_json(writer, 410, {"error": str(exc)})
            return
        except ReproError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        finally:
            self._release()
        await self._send(writer, 200, body)

    async def _stream_query(self, writer, query: str, mode) -> None:
        """NDJSON: one line per quantum, resumed server-side.

        The concurrency slot is held for the whole chain, but the
        single-lane executor interleaves other clients' quanta between
        this chain's — streaming a heavy query does not block light
        ones.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        try:
            outcome = await self._run_quantum(
                lambda: self.service.evaluate_quantum(
                    query, mode=mode, budget=self._budget
                )
            )
            while True:
                # server-driven: the token stays here
                writer.writelines(await self._outcome_pieces(outcome, token=False))
                writer.write(b"\n")
                await writer.drain()
                if outcome.done:
                    break
                outcome = await self._run_quantum(
                    lambda tok=outcome.token: self.service.resume_quantum(tok)
                )
        except ReproError as exc:
            writer.write(
                json.dumps({"error": str(exc)}).encode() + b"\n"
            )
            await writer.drain()

    # -- shedding / metrics ----------------------------------------------------

    def _effective_limit(self) -> int:
        """Concurrency limit, halved per quarantined view (min 1).

        The breaker quarantining views means the store is degrading;
        shrinking admission sheds load while degraded reruns are
        rebuilding answers from base views.
        """
        quarantined = len(self.service.breaker.quarantined)
        return max(1, self.config.max_inflight >> min(quarantined, 4))

    def _admit(self) -> bool:
        if self._inflight >= self._effective_limit():
            self.shed_concurrency += 1
            return False
        self._inflight += 1
        self._idle.clear()
        return True

    def _release(self) -> None:
        self._inflight = max(0, self._inflight - 1)
        if self._inflight == 0:
            self._idle.set()

    async def _run_quantum(self, call):
        """One unit of lane work: a quantum, or a chunk of a long page."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, call)

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "effective_limit": self._effective_limit(),
            "quarantined_views": list(self.service.breaker.quarantined),
        }

    def metrics(self) -> dict:
        return {
            "server": {
                "requests": self.requests,
                "inflight": self._inflight,
                "effective_limit": self._effective_limit(),
                "max_inflight": self.config.max_inflight,
                "draining": self._draining,
                "shed_quota": self.shed_quota,
                "shed_concurrency": self.shed_concurrency,
                "shed_draining": self.shed_draining,
                "responses": dict(self.responses),
            },
            "quotas": self.quotas.metrics(),
            "continuations": self.service.continuation_metrics(),
            "resilience": self.service.resilience_metrics(),
            # MVCC (DESIGN.md §16): the generation new reads run
            # against (pinned-snapshot counts live in "resilience").
            "generation": {"current": self.service.generation},
        }

    async def _outcome_pieces(
        self, outcome: QuantumOutcome, token: bool = True
    ) -> list[bytes]:
        """``outcome_payload`` as JSON, byte for byte what one
        ``json.dumps`` of it gives, in pieces.

        A page longer than ``_PAGE_CHUNK`` is encoded chunk by chunk on
        the engine lane.  Encoding 50 000 matches is tens of
        milliseconds under the interpreter lock: on the loop it would
        stall every connection, and beside the lane it would halve the
        speed of whatever quantum is running (two busy threads take
        turns).  As lane work it is one more bounded unit in the same
        round robin, interleaved with other clients' quanta.
        """
        payload = outcome_payload(outcome)
        if not token:
            del payload["token"]
        items = list(payload.items())
        at = list(payload).index("page")  # keys come before it and after it
        page = outcome.page
        if len(page) <= _PAGE_CHUNK:
            chunks = [_dumps(page)]
        else:
            chunks = [
                await self._run_quantum(
                    lambda start=start: _dumps(page[start:start + _PAGE_CHUNK])
                )
                for start in range(0, len(page), _PAGE_CHUNK)
            ]
        return [
            _dumps(dict(items[:at]))[:-1], b',"page":[',
            b",".join(chunk[1:-1] for chunk in chunks),
            b"],", _dumps(dict(items[at + 1:]))[1:],
        ]

    async def _send_json(
        self, writer, status: int, payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        await self._send(writer, status, [_dumps(payload)], extra_headers)

    async def _send(
        self, writer, status: int, body: list[bytes],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Server: {_SERVER_NAME}",
            "Content-Type: application/json",
            f"Content-Length: {sum(map(len, body))}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n")
        writer.writelines(body)
        await writer.drain()


def _dumps(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def outcome_payload(outcome: QuantumOutcome) -> dict:
    """The wire shape of one quantum (also NDJSON's per-line shape,
    which leaves ``token`` out).  ``page`` is the outcome's own list of
    int tuples, in canonical order; JSON writes a tuple as an array."""
    return {
        "query": outcome.query,
        "combo": outcome.combo,
        "page": outcome.page,
        "match_count": outcome.match_count,
        "done": outcome.done,
        "token": outcome.token,
        "quanta": outcome.quanta,
        "preempted": outcome.preempted,
        "preemptible": outcome.preemptible,
        "degraded": outcome.degraded,
        "refuted": outcome.refuted,
        "error": outcome.error,
        "elapsed_s": outcome.elapsed_s,
        "counters": outcome.counters.as_dict(),
        "io": {
            "logical_reads": outcome.io.logical_reads,
            "physical_reads": outcome.io.physical_reads,
            "pages_written": outcome.io.pages_written,
        },
        "plan_views": list(outcome.plan_views),
    }


class BackgroundServer:
    """Run a :class:`ViewJoinServer` on a daemon thread with its own loop.

    The harness tests, the smoke script and the benchmark all need a live
    HTTP endpoint next to a plain blocking client; this wraps the
    start/serve/drain dance::

        with BackgroundServer(service, config) as bg:
            conn = http.client.HTTPConnection("127.0.0.1", bg.port)
    """

    def __init__(self, service: QueryService, config: ServerConfig | None = None):
        self.server = ViewJoinServer(service, config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="vj-serve", daemon=True
        )
        self._started = False

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=10)
        self._started = True
        return self

    def submit(self, coro):
        """Run a coroutine on the server loop, blocking for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=30
        )

    def drain(self) -> None:
        self.submit(self.server.drain())

    def __exit__(self, *exc) -> None:
        if self._started:
            try:
                self.submit(self.server.aclose())
            except Exception:  # repro-lint: disable=RL105 (best-effort teardown: the loop is stopped and joined below regardless of how aclose fails)
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        # run_forever has returned; close() releases the loop's resources.
        self._loop.close()
