"""Per-layer probes: each layer measured from outside, through the
public functions only, on the run's own document.

A traced run of any workload runs all of them, so every per-layer
metric in ``BENCHMARK.json`` is reported whichever workload was traced.
Counts a probe takes over a fixed sequence of calls are exact: they must
repeat bit-for-bit for the same seed (``e2ebench.metrics.EXACT``).

What each metric should move end to end is tabulated in ``README.md``.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import time

from repro import Planner, ViewCatalog, load_catalog, parse_pattern, save_catalog
from repro.algorithms.engine import evaluate
from repro.datasets.updates import random_update_sequence
from repro.maintenance import apply_updates
from repro.server import BackgroundServer
from repro.service import EvalJob, QueryService, decode_token, encode_token, run_job
from repro.storage import ElementEntry, Pager, StoredList, element_codec
from repro.xmltree import parse_xml_file, write_xml_file

from e2ebench import inputs as inp
from e2ebench.check import Checker, oracle_keys
from e2ebench.workloads import (
    SERVER_CONFIG, HeavyStreams, fetch_paged, fetch_stream, http_request, stream_keys,
)

#: Commits in the maintenance/storage probe; exact per-commit counts
#: are averages over exactly this many.
PROBE_COMMITS = 8
#: Groups (4 singles + 1 batch of 12) in the service cache probe.
PROBE_GROUPS = 60
MICRO_ENTRIES = 20_000

LIGHT_TEXTS = [spec.query.to_xpath() for spec in inp.LIGHT]
HEAVY_TEXTS = [spec.query.to_xpath() for spec in inp.HEAVY]


def timed(fn, reps: int = 3) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    samples = []
    for _ in range(reps):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def tree_bytes(path) -> int:
    path = pathlib.Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CountFsyncs:
    """Benchmark-side wrap of ``os.fsync`` for the commit probe."""

    def __enter__(self):
        self.calls = 0
        self._real = os.fsync

        def counting(fd):
            self.calls += 1
            return self._real(fd)

        os.fsync = counting
        return self

    def __exit__(self, *exc):
        os.fsync = self._real


# ---------------------------------------------------------------------------


def probe_tpq(inputs) -> dict:
    parse = [
        timed(lambda text=text: parse_pattern(text), reps=20)
        for text in inp.SERVICE_POOL
    ]
    begin = time.perf_counter()
    for spec in inp.SPECS:
        oracle_keys(inputs.document, spec.query.to_xpath())
    naive = time.perf_counter() - begin
    return {
        "tpq.parse_us": statistics.median(parse) * 1e6,
        # machine-speed control: moves with the sandbox, not with a change
        "tpq.naive_pass_ms": naive * 1e3,
    }


def probe_xmltree(inputs, workdir) -> dict:
    path = workdir / "probe-document.xml"
    return {
        "xmltree.generate_s": timed(
            lambda: inp.generate_document(inputs.scale, inputs.seed)
        ),
        "xmltree.write_xml_ms": timed(
            lambda: write_xml_file(inputs.document, path)
        ) * 1e3,
        "xmltree.parse_xml_ms": timed(lambda: parse_xml_file(path)) * 1e3,
    }


def probe_storage_setup(inputs, store) -> dict:
    """Materialize / save / open (leaves the store for the later
    probes), plus the 20 k-entry list micro."""
    catalogs = []

    def materialize():
        catalogs.append(inp.materialize_views(inputs.document))

    materialize_s = timed(materialize)
    catalog = catalogs[-1]
    save_s = timed(lambda: save_catalog(catalog, store))
    open_s = timed(lambda: load_catalog(store).close())
    view_bytes = sum(row["bytes"] for row in catalog.space_report())
    for made in catalogs:
        made.close()

    stored = StoredList(Pager(), element_codec(), name="probe")
    stored.extend(
        ElementEntry(i * 3, i * 3 + 2, 1) for i in range(MICRO_ENTRIES)
    )
    stored.finalize()

    def scan():
        total = 0
        for entry in stored.scan():
            total += entry.start
        return total

    def cursor_drain():
        cursor = stored.cursor()
        while cursor.current is not None:
            cursor.advance()

    return {
        "storage.materialize_s": materialize_s,
        "storage.save_s": save_s,
        "storage.open_s": open_s,
        "storage.view_bytes": view_bytes,
        "storage.scan_ns_per_entry": timed(scan, 5) / MICRO_ENTRIES * 1e9,
        "storage.cursor_ns_per_entry": timed(cursor_drain, 5) / MICRO_ENTRIES * 1e9,
    }


def _mix_pass(catalog, algorithm, scheme, mode="memory", emit=True):
    """The whole 14-query mix once; returns (seconds, results)."""
    results = []
    begin = time.perf_counter()
    for spec in inp.SPECS:
        results.append(evaluate(
            spec.query, catalog, spec.views, algorithm, scheme,
            mode=mode, emit_matches=emit,
        ))
    return time.perf_counter() - begin, results


def probe_algorithms(inputs) -> dict:
    """Work counters (the paper's ground truth), the Fig. 5 / Table V
    combos over the whole mix, and the filtering/output split."""
    metrics = {}
    with ViewCatalog(inputs.document) as catalog:
        def pass_ms(algorithm, scheme, mode="memory", emit=True):
            _mix_pass(catalog, algorithm, scheme, mode, emit)  # materialize, warm
            passes = [
                _mix_pass(catalog, algorithm, scheme, mode, emit)
                for _ in range(3)
            ]
            seconds = statistics.median(p[0] for p in passes)
            return seconds * 1e3, passes[-1][1]

        metrics["algorithms.vj_lep_pass_ms"], results = pass_ms("VJ", "LEp")
        for field in ("elements_scanned", "pointer_jumps", "entries_skipped",
                      "comparisons"):
            metrics[f"algorithms.{field}_per_pass"] = sum(
                getattr(r.counters, field) for r in results
            )
        metrics["algorithms.work_per_pass"] = sum(r.counters.work for r in results)
        metrics["algorithms.peak_buffer_entries_max"] = max(
            r.peak_buffer_entries for r in results
        )
        logical = sum(r.io.logical_reads for r in results)
        physical = sum(r.io.physical_reads for r in results)
        metrics["storage.logical_reads_per_pass"] = logical
        metrics["storage.physical_reads_per_pass"] = physical
        metrics["storage.pool_hit_ratio"] = 1.0 - physical / logical

        output = elapsed = 0.0
        for _ in range(3):
            for spec in inp.HEAVY:
                begin = time.perf_counter()
                result = evaluate(
                    spec.query, catalog, spec.views, "VJ", inp.SCHEME,
                    mode="memory",
                )
                elapsed += time.perf_counter() - begin
                output += result.output_seconds
        metrics["algorithms.output_share"] = output / elapsed
        metrics["algorithms.count_only_pass_ms"], _ = pass_ms(
            "VJ", "LEp", emit=False
        )
        metrics["algorithms.vj_lep_disk_pass_ms"], _ = pass_ms(
            "VJ", "LEp", mode="disk"
        )
        metrics["algorithms.vj_le_pass_ms"], vj_le = pass_ms("VJ", "LE")
        metrics["algorithms.vj_e_pass_ms"], _ = pass_ms("VJ", "E")
        metrics["algorithms.ts_e_pass_ms"], ts_e = pass_ms("TS", "E")
        metrics["algorithms.ts_e_over_vj_le_work_ratio"] = (
            sum(r.counters.work for r in ts_e)
            / sum(r.counters.work for r in vj_le)
        )
    return metrics


def probe_planner(store) -> dict:
    with load_catalog(store) as catalog:
        cold = Planner(catalog, scheme=inp.SCHEME, plan_cache_size=0)
        cold.adopt_catalog_views()
        cached = Planner(catalog, scheme=inp.SCHEME)
        cached.adopt_catalog_views()
        cold_s, cached_s = [], []
        for text in inp.SERVICE_POOL:
            cached.plan(text)
            cold_s.append(timed(lambda: cold.plan(text)))
            cached_s.append(timed(lambda: cached.plan(text), reps=9))
    return {
        "planner.plan_cold_us": statistics.median(cold_s) * 1e6,
        "planner.plan_cached_us": statistics.median(cached_s) * 1e6,
    }


def _quantum_chain(service, text, budget):
    """``evaluate_quantum`` + ``resume_quantum`` to done; returns
    (seconds, quanta, tokens)."""
    tokens = []
    begin = time.perf_counter()
    outcome = service.evaluate_quantum(text, budget=budget)
    quanta = 1
    while not outcome.done:
        tokens.append(outcome.token)
        outcome = service.resume_quantum(outcome.token)
        quanta += 1
    return time.perf_counter() - begin, quanta, tokens


def probe_service(inputs, store) -> tuple[dict, dict]:
    """Returns (metrics, direct quantum-chain medians by class) — the
    server probe subtracts the latter from its solo HTTP latencies."""
    metrics = {}
    budget = SERVER_CONFIG.budget()
    with QueryService.open(store) as service:
        service.warmup(inp.SERVICE_POOL + HEAVY_TEXTS)
        overhead = []
        for text in LIGHT_TEXTS:
            plan = service.planner.plan(text)
            job = EvalJob.from_patterns(
                0, plan.query, plan.all_views, plan.algorithm, plan.scheme
            )
            composed = timed(lambda: service.evaluate(text), reps=5)
            engine = timed(
                lambda: run_job(service.catalog, job, expect_warm=True), reps=5
            )
            overhead.append(composed - engine)
        metrics["service.evaluate_overhead_us"] = statistics.median(overhead) * 1e6

        chains = {"light": [], "heavy": []}
        extra, quanta, tokens = [], [], []
        for texts, cls in ((LIGHT_TEXTS, "light"), (HEAVY_TEXTS, "heavy")):
            for text in texts:
                runs = [_quantum_chain(service, text, budget) for _ in range(3)]
                chain = statistics.median(run[0] for run in runs)
                chains[cls].append(chain)
                tokens += runs[-1][2]
                if cls == "heavy":
                    quanta.append(runs[-1][1])
                    extra.append(chain - timed(lambda: service.evaluate(text)))
        metrics["service.quantum_overhead_ms"] = statistics.median(extra) * 1e3
        metrics["service.quanta_per_heavy_query"] = statistics.fmean(quanta)
        # no query suspends on a small document: no token to weigh
        biggest = max(tokens, key=len, default="")
        metrics["service.token_bytes_max"] = len(biggest)
        metrics["service.token_codec_us"] = timed(
            lambda: encode_token(decode_token(biggest)), reps=9
        ) * 1e6 if biggest else 0.0
        direct = {cls: statistics.median(times) for cls, times in chains.items()}

    with QueryService.open(store, result_cache_size=64) as service:
        hits = []
        for text in LIGHT_TEXTS:
            service.evaluate(text)
            hits.append(timed(lambda: service.evaluate(text), reps=9))
        metrics["service.result_hit_us"] = statistics.median(hits) * 1e6

    # a fixed prefix of the service_mix stream: cache behaviour as counts
    with QueryService.open(
        store, result_cache_size=inp.RESULT_CACHE_SIZE
    ) as service:
        service.warmup(inp.SERVICE_POOL)
        stream = inp.ZipfStream(inputs.seed)
        batch_s = logical = physical = 0
        for singles, batch in stream.groups(PROBE_GROUPS):
            outcomes = [service.evaluate(text) for text in singles]
            begin = time.perf_counter()
            outcomes += service.evaluate_batch(batch).outcomes
            batch_s += time.perf_counter() - begin
            for outcome in outcomes:
                if not (outcome.cached or outcome.shared):
                    logical += outcome.io.logical_reads
                    physical += outcome.io.physical_reads
        shared = service.shared_metrics()
        metrics["service.result_cache_hit_ratio"] = (
            service.result_cache_stats.hit_rate
        )
        metrics["planner.plan_cache_hit_ratio"] = service.plan_cache_stats.hit_rate
        metrics["service.batch_ms_per_query"] = (
            batch_s / (PROBE_GROUPS * inp.BATCH_SIZE) * 1e3
        )
        metrics["service.shared_jobs_per_query"] = (
            shared["jobs_run"] / shared["queries"]
        )
        metrics["service.stream_cache_hit_ratio"] = shared["stream_cache"]["hit_rate"]
        metrics["service.stream_spilled_bytes"] = shared["stream_spilled_bytes"]
        # cold pool per job, CRC-verified physical reads from the store file
        metrics["storage.cold_pool_hit_ratio"] = 1.0 - physical / logical
    return metrics, direct


def probe_server(store, direct: dict) -> dict:
    """Solo (one client) and contended (a second client streaming heavy
    queries) latencies over real HTTP, against the direct quantum chain."""
    metrics = {}
    with QueryService.open(store) as service, \
            BackgroundServer(service, SERVER_CONFIG) as server:
        port = server.port
        for text in LIGHT_TEXTS + HEAVY_TEXTS:
            fetch_paged(port, text)

        metrics["server.health_rtt_ms"] = timed(
            lambda: http_request(port, "GET", "/health"), reps=30
        ) * 1e3

        light, trips, size, matches = [], 0, 0, 0
        for _ in range(3):
            for text in LIGHT_TEXTS:
                seconds, keys, n_trips, n_bytes = fetch_paged(port, text)
                light.append(seconds)
                trips += n_trips
                size += n_bytes
                matches += len(keys)
        heavy = []
        for _ in range(2):
            for text in HEAVY_TEXTS:
                seconds, raw = fetch_stream(port, text)
                heavy.append(seconds)
                size += len(raw)
                matches += len(stream_keys(raw))
        solo_light = statistics.median(light)
        solo_heavy = statistics.median(heavy)
        metrics["server.solo_light_p50_ms"] = solo_light * 1e3
        metrics["server.solo_heavy_p50_ms"] = solo_heavy * 1e3
        metrics["server.http_overhead_light_ms"] = (solo_light - direct["light"]) * 1e3
        metrics["server.http_overhead_heavy_ms"] = (solo_heavy - direct["heavy"]) * 1e3
        metrics["server.response_bytes_per_match"] = size / matches
        metrics["server.requests_per_light_query"] = trips / len(light)

        checker = Checker()
        streams = HeavyStreams(port)
        streams.start()
        try:
            contended = [fetch_paged(port, text)[0] for text in LIGHT_TEXTS]
        finally:
            streams.stop()
        streams.take(checker)
        if checker.failed:
            raise RuntimeError(f"contended probe: {checker.failures}")
        metrics["server.head_of_line_wait_ms"] = (
            statistics.median(contended) - solo_light
        ) * 1e3
    return metrics


def probe_commits(inputs, store) -> dict:
    """``PROBE_COMMITS`` durable commits through the service, each delta
    also repaired on an in-memory twin catalog: the difference is what
    durability (WAL, ``commit_store``, generation archive) costs."""
    deltas, _final = random_update_sequence(
        inputs.document, count=PROBE_COMMITS, seed=inputs.seed,
        max_subtree=inp.MAX_SUBTREE,
    )
    store = pathlib.Path(store)
    wal = store / "wal.jsonl"
    durable, repair, pinned, actions = [], [], [], {}
    with inp.materialize_views(inputs.document) as twin, \
            QueryService.open(store) as service:
        for text in LIGHT_TEXTS:
            service.evaluate(text)
        pin = service.pin_generation()
        before = {
            "pages": tree_bytes(store / "pages.bin"),
            "archive": tree_bytes(store / "generations"),
            "wal": tree_bytes(wal) if wal.exists() else 0,
        }
        with CountFsyncs() as fsyncs:
            for round_id, delta in enumerate(deltas):
                begin = time.perf_counter()
                report = service.apply_updates([delta])
                durable.append(time.perf_counter() - begin)
                for action, count in report.action_counts().items():
                    actions[action] = actions.get(action, 0) + count
                begin = time.perf_counter()
                apply_updates(twin, [delta])
                repair.append(time.perf_counter() - begin)
                text = LIGHT_TEXTS[round_id % len(LIGHT_TEXTS)]
                begin = time.perf_counter()
                service.evaluate(text, as_of=pin)
                pinned.append(time.perf_counter() - begin)
        service.unpin_generation(pin)
    views = sum(actions.values())
    metrics = {
        "maintenance.repair_ms": statistics.median(repair) * 1e3,
        "maintenance.wal_bytes_per_commit": (
            (tree_bytes(wal) - before["wal"]) / PROBE_COMMITS
        ),
        "storage.commit_overhead_ms": statistics.median(
            d - r for d, r in zip(durable, repair)
        ) * 1e3,
        "storage.fsyncs_per_commit": fsyncs.calls / PROBE_COMMITS,
        "storage.pages_bytes_per_commit": (
            (tree_bytes(store / "pages.bin") - before["pages"]) / PROBE_COMMITS
        ),
        "storage.archive_bytes_per_commit": (
            (tree_bytes(store / "generations") - before["archive"])
            / PROBE_COMMITS
        ),
        "storage.store_bytes_per_doc_byte": (
            tree_bytes(store) / tree_bytes(store / "document.xml")
        ),
        "service.pinned_read_ms": statistics.median(pinned) * 1e3,
    }
    for action in ("noop", "shift", "splice", "rebuild"):
        metrics[f"maintenance.action_share.{action}"] = (
            actions.get(action, 0) / views
        )
    return metrics


def run_all(inputs, workdir) -> dict:
    """Every per-layer metric except ``trace_overhead_ratio``."""
    metrics = {}
    metrics.update(probe_tpq(inputs))
    metrics.update(probe_xmltree(inputs, workdir))
    store = workdir / "probe-store"
    metrics.update(probe_storage_setup(inputs, store))
    metrics.update(probe_algorithms(inputs))
    metrics.update(probe_planner(store))
    service_metrics, direct = probe_service(inputs, store)
    metrics.update(service_metrics)
    metrics.update(probe_server(store, direct))
    metrics.update(probe_commits(inputs, store))   # last: it rewrites the store
    return metrics
