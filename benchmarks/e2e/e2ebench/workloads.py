"""The four closed-loop workloads.

Each workload builds the whole stack from the seed's document
(``setup``), runs whole passes until the time is up (``run``), and
afterwards has its kept answers compared with the oracle (``verify``).
A pass has a fixed composition, so a longer run only adds passes and
any group of passes is a comparable sample of the workload.

Why each exists (the layers it stresses) is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro import save_catalog
from repro.algorithms.engine import evaluate
from repro.maintenance import apply_delta
from repro.server import BackgroundServer, ServerConfig
from repro.service import QueryService

from e2ebench import inputs as inp
from e2ebench.check import pack_keys, unpack_keys
from e2ebench.trace import OFF

#: ``serve_http`` quanta: BENCH_9's time-only budget.  With the default
#: ``quantum_matches=1024`` a heavy query's continuation token outgrows
#: asyncio's 64 KiB header limit and ``GET /next`` is reset (README).
SERVER_CONFIG = ServerConfig(port=0, quantum_ms=10, quantum_matches=0)
#: Streaming connections of client A.  With one, the lane idles while A
#: turns a 2 MB answer around, a varying number of light queries slip
#: through the gap, and light latency is bimodal (README, sizing).
HEAVY_STREAMS = 2

#: Pass sizes, chosen so that every pass of a workload has the same
#: composition: three rotations of the heavy queries; forty draws of
#: four singles and a batch; eleven rounds, in which the four live reads
#: per round visit every light query four times.
ENGINE_ROTATIONS = len(inp.HEAVY)
MIX_GROUPS_PER_PASS = 40
STORM_ROUNDS_PER_PASS = len(inp.LIGHT)


@dataclass
class Pass:
    """Latencies (seconds) of one pass, by operation class."""

    light: list[float] = field(default_factory=list)
    #: heavy query (engine_fig5, serve_http), 12-query batch
    #: (service_mix) or durable commit (update_storm)
    heavy: list[float] = field(default_factory=list)
    #: read queries answered (a batch counts each query)
    queries: int = 0
    wall: float = 0.0


class Workload:
    name = ""

    def __init__(self, inputs: inp.Inputs, workdir):
        self.inputs = inputs
        self.workdir = workdir
        self.store = workdir / "store"
        self.requests = 0

    def setup(self) -> None:
        raise NotImplementedError

    def one_pass(self, tracer, checker) -> Pass | None:
        """Run one pass; ``None`` when the workload cannot go on."""
        raise NotImplementedError

    def run(self, seconds: float, tracer, checker) -> list[Pass]:
        """Whole passes until ``seconds`` have gone by, at least one."""
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            begin = time.perf_counter()
            done = self.one_pass(tracer, checker)
            if done is None:
                break
            done.wall = time.perf_counter() - begin
            passes.append(done)
            if time.perf_counter() >= deadline:
                break
        if not passes:
            raise RuntimeError(f"{self.name}: no pass completed")
        return passes

    def verify(self, checker) -> None:
        checker.verify(lambda generation: self.inputs.document, lambda keys: keys)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _build_store(self) -> None:
        """generate -> materialize -> save: what every store-backed
        workload's program does before it can open the store."""
        document = inp.generate_document(self.inputs.scale, self.inputs.seed)
        with inp.materialize_views(document) as catalog:
            save_catalog(catalog, self.store)

    def _timed(self, tracer, span: str, call):
        """``call()`` under a span; returns (result, seconds)."""
        with tracer.span(span, self.requests):
            start = time.perf_counter()
            result = call()
            return result, time.perf_counter() - start


def record_outcome(checker, outcome, generation=0) -> None:
    """Feed one ``QueryOutcome`` to the checker: an error or a degraded
    re-answer is a failed operation even when the matches are right."""
    if outcome.error or outcome.degraded:
        checker.error(f"{outcome.query}: {outcome.error or 'degraded'}")
    else:
        checker.answer(outcome.query, generation, outcome.match_keys)


class NoMaterialization:
    """Views are materialized before any timed region; this asserts that
    a timed region materialized none."""

    def __init__(self, catalog):
        self._catalog = catalog
        self._before = catalog.materializations

    def check(self) -> None:
        if self._catalog.materializations != self._before:
            raise AssertionError(
                "views were materialized inside the timed region; the"
                " warm-up pass must cover every view the workload plans"
            )


# ---------------------------------------------------------------------------
# engine_fig5
# ---------------------------------------------------------------------------

class EngineFig5(Workload):
    """ViewJoin over LE_p views, in process, one caller: the paper's axis."""

    name = "engine_fig5"

    def setup(self) -> None:
        document = inp.generate_document(self.inputs.scale, self.inputs.seed)
        self.catalog = inp.materialize_views(document)
        for spec in inp.SPECS:
            self._evaluate(spec)
        self.unchanged = NoMaterialization(self.catalog)

    def _evaluate(self, spec):
        return evaluate(
            spec.query, self.catalog, spec.views, "VJ", inp.SCHEME,
            mode="memory",
        )

    def one_pass(self, tracer, checker) -> Pass:
        done = Pass()
        for rotation in range(ENGINE_ROTATIONS):
            heavy = inp.HEAVY[rotation]
            for spec in (*inp.LIGHT, heavy):
                self.requests += 1
                try:
                    result, elapsed = self._timed(
                        tracer, "algorithms.evaluate",
                        lambda: self._evaluate(spec),
                    )
                except Exception as exc:  # noqa: BLE001 - the loop goes on
                    checker.error(f"{spec.name}: {exc!r}")
                    continue
                (done.heavy if spec is heavy else done.light).append(elapsed)
                done.queries += 1
                self._record(checker, spec.query.to_xpath(), result)
        self.unchanged.check()
        return done

    @staticmethod
    def _record(checker, text, result) -> None:
        """A repeat is fingerprinted by its match count and exact work
        counters; only a first answer pays for its match keys."""
        fingerprint = (
            result.match_count, tuple(result.counters.as_dict().items())
        )
        first = not checker.has(text, 0)
        checker.answer(
            text, 0, fingerprint,
            pack_keys(result.match_keys()) if first else None,
        )

    def verify(self, checker) -> None:
        checker.verify(lambda generation: self.inputs.document, unpack_keys)

    def close(self) -> None:
        self.catalog.close()
        super().close()


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------

class ServiceMix(Workload):
    """A Zipf stream of single and batched requests through
    ``QueryService``: parse, plan cache, result cache, shared scan."""

    name = "service_mix"

    def setup(self) -> None:
        self._build_store()
        self.service = QueryService.open(
            self.store, result_cache_size=inp.RESULT_CACHE_SIZE
        )
        self.service.warmup(inp.SERVICE_POOL)
        for text in inp.SERVICE_POOL:
            self.service.evaluate(text)
        self.stream = inp.ZipfStream(self.inputs.seed)
        self.unchanged = NoMaterialization(self.service.catalog)

    def one_pass(self, tracer, checker) -> Pass:
        done = Pass()
        service = self.service
        for singles, texts in self.stream.groups(MIX_GROUPS_PER_PASS):
            for text in singles:
                self.requests += 1
                try:
                    outcome, elapsed = self._timed(
                        tracer, "service.evaluate",
                        lambda: service.evaluate(text),
                    )
                except Exception as exc:  # noqa: BLE001
                    checker.error(f"{text}: {exc!r}")
                    continue
                done.light.append(elapsed)
                done.queries += 1
                record_outcome(checker, outcome)
            self.requests += 1
            try:
                batch, elapsed = self._timed(
                    tracer, "service.evaluate_batch",
                    lambda: service.evaluate_batch(texts),
                )
            except Exception as exc:  # noqa: BLE001
                checker.error(f"batch: {exc!r}")
                continue
            done.heavy.append(elapsed)
            done.queries += len(batch.outcomes)
            for outcome in batch.outcomes:
                record_outcome(checker, outcome)
        self.unchanged.check()
        return done

    def close(self) -> None:
        self.service.close()
        super().close()


# ---------------------------------------------------------------------------
# serve_http
# ---------------------------------------------------------------------------

class HttpFailure(Exception):
    pass


def http_request(port: int, method: str, path: str, body=None) -> bytes:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise HttpFailure(
            f"{method} {path[:40]}: {response.status} {raw[:120]!r}"
        )
    return raw


def fetch_paged(port: int, text: str, tracer=OFF, request: int = 0):
    """``POST /query`` then ``GET /next`` to ``done``; returns
    (seconds, match keys in emission order, round trips, bytes)."""
    start = time.perf_counter()
    with tracer.span("server.post_query", request):
        raw = http_request(port, "POST", "/query", json.dumps({"query": text}))
    data = json.loads(raw)
    keys, trips, size = data["page"], 1, len(raw)
    while not data["done"]:
        with tracer.span("server.get_next", request):
            raw = http_request(port, "GET", "/next?token=" + data["token"])
        data = json.loads(raw)
        keys += data["page"]
        trips += 1
        size += len(raw)
    if data["error"] or data["degraded"]:
        raise HttpFailure(f"{text}: {data['error'] or 'degraded'}")
    elapsed = time.perf_counter() - start
    return elapsed, [tuple(key) for key in keys], trips, size


def fetch_stream(port: int, text: str, tracer=OFF, request: int = 0):
    """``POST /query {"stream": true}``; returns (seconds, NDJSON bytes)."""
    start = time.perf_counter()
    with tracer.span("server.post_stream", request):
        raw = http_request(
            port, "POST", "/query", json.dumps({"query": text, "stream": True})
        )
    return time.perf_counter() - start, raw


def stream_pages_crc(raw: bytes) -> int:
    """CRC of the concatenated ``page`` arrays of an NDJSON answer: the
    cheap fingerprint of a repeat (a full parse of ~2 MB per heavy answer
    would give the streaming client think time it must not have)."""
    crc = 0
    for line in raw.splitlines():
        first = line.find(b'"page":[')
        last = line.find(b'],"match_count":')
        if first < 0 or last < 0:
            raise HttpFailure(f"unexpected NDJSON line {line[:80]!r}")
        page = line[first + 8:last]
        if page:   # where the quanta cut the answer must not matter
            crc = zlib.crc32(page, zlib.crc32(b",", crc))
    return crc


def stream_keys(raw: bytes) -> list[tuple[int, ...]]:
    keys = []
    for line in raw.splitlines():
        data = json.loads(line)
        if data["error"] or data["degraded"]:
            raise HttpFailure(data["error"] or "degraded")
        keys += [tuple(key) for key in data["page"]]
    return keys


class HeavyStreams:
    """Client A: ``HEAVY_STREAMS`` connections streaming the heavy
    queries back to back from start to stop."""

    def __init__(self, port: int, tracer=OFF):
        self._port = port
        self._tracer = tracer
        self._stop = threading.Event()
        self._lock = threading.Lock()
        #: (query text, seconds, crc, raw bytes of a first answer)
        self._finished: list[tuple] = []
        self._errors: list[str] = []
        self._seen: set[str] = set()
        self._threads = [
            threading.Thread(target=self._stream, args=(index,),
                             name=f"client-a{index}")
            for index in range(HEAVY_STREAMS)
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def _stream(self, index: int) -> None:
        turn = index
        while not self._stop.is_set():
            text = inp.HEAVY[turn % len(inp.HEAVY)].query.to_xpath()
            turn += 1
            try:
                elapsed, raw = fetch_stream(
                    self._port, text, self._tracer, -turn
                )
                crc = stream_pages_crc(raw)
            except Exception as exc:  # noqa: BLE001
                with self._lock:
                    self._errors.append(f"{text}: {exc!r}")
                continue
            with self._lock:
                first = text not in self._seen
                self._seen.add(text)
                self._finished.append(
                    (text, elapsed, crc, raw if first else None)
                )

    def take(self, checker) -> list[float]:
        """Hand what finished since the last call to the checker;
        returns the latencies."""
        with self._lock:
            finished, self._finished = self._finished, []
            errors, self._errors = self._errors, []
        for text, _elapsed, crc, raw in finished:
            checker.answer(text, 0, crc, raw)
        for what in errors:
            checker.error(what)
        return [elapsed for _text, elapsed, _crc, _raw in finished]

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=150)
        if any(thread.is_alive() for thread in self._threads):
            raise RuntimeError("a streaming client did not stop")


class ServeHttp(Workload):
    """Clients over real HTTP: A streams heavy queries back to back, B
    pages the light queries — framing, tokens, quanta, head-of-line."""

    name = "serve_http"

    def setup(self) -> None:
        self._build_store()
        self.service = QueryService.open(self.store)
        self.server = BackgroundServer(self.service, SERVER_CONFIG)
        self.server.__enter__()
        for spec in inp.SPECS:
            fetch_paged(self.server.port, spec.query.to_xpath())
        self.unchanged = NoMaterialization(self.service.catalog)

    def run(self, seconds, tracer, checker) -> list[Pass]:
        self.streams = HeavyStreams(self.server.port, tracer)
        self.streams.start()
        try:
            return super().run(seconds, tracer, checker)
        finally:
            self.streams.stop()
            # in flight when B finished: checked, not timed
            self.streams.take(checker)
            self.unchanged.check()

    def one_pass(self, tracer, checker) -> Pass:
        done = Pass()
        for spec in inp.LIGHT:
            text = spec.query.to_xpath()
            self.requests += 1
            try:
                elapsed, keys, _trips, _size = fetch_paged(
                    self.server.port, text, tracer, self.requests
                )
            except Exception as exc:  # noqa: BLE001
                checker.error(f"{spec.name}: {exc!r}")
                continue
            done.light.append(elapsed)
            done.queries += 1
            checker.answer(text, 0, keys)
        done.heavy = self.streams.take(checker)
        done.queries += len(done.heavy)
        return done

    def verify(self, checker) -> None:
        checker.verify(
            lambda generation: self.inputs.document,
            lambda payload: (
                stream_keys(payload) if isinstance(payload, bytes) else payload
            ),
        )

    def close(self) -> None:
        self.server.__exit__(None, None, None)
        self.service.close()
        super().close()


# ---------------------------------------------------------------------------
# update_storm
# ---------------------------------------------------------------------------

class UpdateStorm(Workload):
    """Durable commits interleaved with live and pinned reads: repair,
    WAL, ``commit_store``, generation archive — and reads that recompute
    after every commit.

    Commits may rebuild a view or make the planner pick a base view it
    has not used yet, so this workload alone does not assert that no view
    is materialized inside the timed region.
    """

    name = "update_storm"

    def __init__(self, inputs, workdir):
        super().__init__(inputs, workdir)
        self.deltas: list = []
        self.commits = 0
        self.reads = 0

    def setup(self) -> None:
        self._build_store()
        self.service = QueryService.open(self.store)
        for spec in inp.SPECS:
            self.service.evaluate(spec.query.to_xpath())
        self.pin = self.service.pin_generation()

    def one_pass(self, tracer, checker) -> Pass | None:
        if self.commits + STORM_ROUNDS_PER_PASS > len(self.deltas):
            return None   # the storm outran its pre-generated deltas
        done = Pass()
        light = [spec.query.to_xpath() for spec in inp.LIGHT]
        for _round in range(STORM_ROUNDS_PER_PASS):
            delta = self.deltas[self.commits]
            self.requests += 1
            try:
                _report, elapsed = self._timed(
                    tracer, "service.apply_updates",
                    lambda: self.service.apply_updates([delta]),
                )
            except Exception as exc:  # noqa: BLE001
                # every later delta addresses the document this one
                # would have made: the storm cannot go on
                checker.error(f"commit {self.commits}: {exc!r}")
                return None
            self.commits += 1
            done.heavy.append(elapsed)
            checker.done()
            for _read in range(inp.LIVE_READS_PER_ROUND):
                text = light[self.reads % len(light)]
                self.reads += 1
                elapsed = self._read(text, None, self.commits, tracer, checker)
                if elapsed is not None:
                    done.light.append(elapsed)
                    done.queries += 1
            # the pinned read counts as a query; its latency is the
            # per-layer ``service.pinned_read_ms``
            text = light[self.commits % len(light)]
            if self._read(text, self.pin, 0, tracer, checker) is not None:
                done.queries += 1
        return done

    def _read(self, text, as_of, generation, tracer, checker) -> float | None:
        self.requests += 1
        try:
            outcome, elapsed = self._timed(
                tracer, "service.evaluate",
                lambda: self.service.evaluate(text, as_of=as_of),
            )
        except Exception as exc:  # noqa: BLE001
            checker.error(f"{text}: {exc!r}")
            return None
        record_outcome(checker, outcome, generation)
        return elapsed

    def verify(self, checker) -> None:
        """Acknowledged commits survive a restart: reopen the store and
        re-check the light answers, then replay the deltas to check every
        generation's reads against that generation's document."""
        self.service.unpin_generation(self.pin)
        self.service.close()
        self.service = QueryService.open(self.store)
        for spec in inp.LIGHT:
            outcome = self.service.evaluate(spec.query.to_xpath())
            record_outcome(checker, outcome, self.commits)
        replayed = 0
        document = self.inputs.document

        def document_of(generation: int):
            nonlocal replayed, document
            while replayed < generation:
                document = apply_delta(document, self.deltas[replayed]).document
                replayed += 1
            return document

        checker.verify(document_of, lambda keys: keys)

    def close(self) -> None:
        self.service.close()
        super().close()


WORKLOADS = {
    cls.name: cls for cls in (EngineFig5, ServiceMix, ServeHttp, UpdateStorm)
}
