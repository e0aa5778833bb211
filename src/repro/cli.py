"""Command-line interface: ``viewjoin`` (or ``python -m repro``).

Subcommands:

* ``generate`` — write a synthetic XMark/NASA document to an XML file;
* ``stats`` — show document statistics;
* ``run`` — evaluate a query over views with a chosen engine combo;
* ``select`` — run the cost-based view-selection heuristic;
* ``workload`` — run a whole benchmark workload grid and print the table;
* ``space`` — view sizes and pointer counts per storage scheme (Table IV);
* ``scalability`` — scale sweep of ViewJoin work/memory (Fig. 7 shape);
* ``materialize`` — build a persistent view store from an XML document;
* ``query`` — answer a query from a persistent store (planner-driven);
* ``batch`` — answer many queries from a store, optionally in parallel;
* ``update`` — apply document updates to a store, repairing its views
  incrementally (or replay its update log after a crash);
* ``advise`` — recommend views worth materializing for a query;
* ``verify-store`` — checksum-verify a store's pages and update log;
* ``chaos`` — run a batch under a deterministic fault-injection plan;
* ``serve`` — HTTP front end with preemptible quanta, continuation
  tokens, per-tenant quotas and graceful drain;
* ``lint`` — run the repro-lint invariant checker over the package.
"""

from __future__ import annotations

import argparse
import sys

from repro.algorithms.engine import evaluate
from repro.bench.harness import run_query_matrix
from repro.bench.report import format_records, format_table
from repro.datasets import nasa as nasa_data
from repro.datasets import xmark as xmark_data
from repro.selection import ExactSizes, select_views
from repro.storage.catalog import ViewCatalog
from repro.tpq.parser import parse_pattern
from repro.workloads import nasa as nasa_workload
from repro.workloads import xmark as xmark_workload
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.writer import write_xml_file


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "run": _cmd_run,
        "select": _cmd_select,
        "workload": _cmd_workload,
        "space": _cmd_space,
        "scalability": _cmd_scalability,
        "materialize": _cmd_materialize,
        "query": _cmd_query,
        "batch": _cmd_batch,
        "update": _cmd_update,
        "advise": _cmd_advise,
        "verify-store": _cmd_verify_store,
        "gc": _cmd_gc,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewjoin",
        description="ViewJoin (ICDE 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("dataset", choices=("xmark", "nasa"))
    gen.add_argument("output", help="output XML file path")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser("stats", help="show document statistics")
    stats.add_argument("input", help="XML file path")

    run = sub.add_parser("run", help="evaluate a query using views")
    run.add_argument("input", help="XML file path")
    run.add_argument("query", help="TPQ in the {/, //, []} XPath fragment")
    run.add_argument(
        "--view", action="append", required=True, dest="views",
        help="covering view (repeatable)",
    )
    run.add_argument("--algorithm", default="VJ",
                     choices=("IJ", "TS", "PS", "VJ"))
    run.add_argument("--scheme", default="LEp",
                     choices=("T", "E", "LE", "LEp"))
    run.add_argument("--mode", default="memory", choices=("memory", "disk"))
    run.add_argument("--show-matches", type=int, default=0, metavar="N",
                     help="print the first N matches")

    sel = sub.add_parser("select", help="cost-based view selection")
    sel.add_argument("input", help="XML file path")
    sel.add_argument("query")
    sel.add_argument("--candidate", action="append", required=True,
                     dest="candidates", help="candidate view (repeatable)")
    sel.add_argument("--lam", type=float, default=1.0,
                     help="cost-model weight lambda (paper uses 1.0)")

    wl = sub.add_parser("workload", help="run a benchmark workload grid")
    wl.add_argument("name", choices=("xmark-paths", "xmark-twigs",
                                     "nasa-paths", "nasa-twigs"))
    wl.add_argument("--scale", type=float, default=1.0)
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--metric", default="ms",
                    choices=("ms", "work", "scanned", "cmp", "pages",
                             "jumps", "skipped", "matches"))
    wl.add_argument("--workers", type=int, default=0,
                    help="fan the grid out over N worker processes"
                         " (0 = classic in-process loop)")
    wl.add_argument("--repeats", type=int, default=1,
                    help="repeat each cell and report median wall-clock")

    space = sub.add_parser(
        "space", help="view size/pointers per scheme (Table IV shape)"
    )
    space.add_argument("input", help="XML file path")
    space.add_argument("--view", action="append", required=True,
                       dest="views", help="view pattern (repeatable)")

    scal = sub.add_parser(
        "scalability", help="scale sweep of ViewJoin (Fig. 7 shape)"
    )
    scal.add_argument("query", help="TPQ to sweep")
    scal.add_argument("--view", action="append", required=True,
                      dest="views", help="covering view (repeatable)")
    scal.add_argument("--dataset", default="xmark",
                      choices=("xmark", "nasa"))
    scal.add_argument("--scales", default="0.5,1,1.5,2",
                      help="comma-separated generator scales")
    scal.add_argument("--seed", type=int, default=42)

    mat = sub.add_parser(
        "materialize", help="build a persistent view store"
    )
    mat.add_argument("input", help="XML file path")
    mat.add_argument("store", help="store directory to create")
    mat.add_argument("--view", action="append", required=True,
                     dest="views", help="view pattern (repeatable)")
    mat.add_argument("--scheme", default="LEp",
                     choices=("T", "E", "LE", "LEp"))

    qry = sub.add_parser(
        "query", help="answer a query from a persistent store"
    )
    qry.add_argument("store", help="store directory (from `materialize`)")
    qry.add_argument("query", help="TPQ to answer")
    qry.add_argument("--show-matches", type=int, default=0, metavar="N")

    bat = sub.add_parser(
        "batch", help="answer many queries from a persistent store"
    )
    bat.add_argument("store", help="store directory (from `materialize`)")
    bat.add_argument("--query", action="append", required=True,
                     dest="queries", help="TPQ to answer (repeatable)")
    bat.add_argument("--workers", type=int, default=0,
                     help="evaluate in parallel over N worker processes")
    bat.add_argument("--repeats", type=int, default=1,
                     help="re-run the batch and report the median"
                          " wall-clock")
    bat.add_argument("--result-cache", type=int, default=0, metavar="N",
                     help="enable a keyed result cache of N entries")
    bat.add_argument("--record-log", default=None, metavar="PATH",
                     dest="record_log",
                     help="record the batch into a WorkloadLog JSON file"
                          " for offline `advise --from-log` replay")

    upd = sub.add_parser(
        "update",
        help="apply document updates to a store (incremental view"
             " maintenance)",
    )
    upd.add_argument("store", help="store directory (from `materialize`)")
    upd.add_argument(
        "--insert", action="append", default=[], metavar="JSON",
        dest="inserts",
        help="insert-subtree delta as JSON:"
             ' {"parent_start": S, "position": P, "rows": [["tag", 0], ...]}'
             " (repeatable)",
    )
    upd.add_argument(
        "--delete", action="append", default=[], type=int, metavar="START",
        dest="deletes",
        help="delete the subtree rooted at this start label (repeatable)",
    )
    upd.add_argument(
        "--rename", action="append", default=[], metavar="START:TAG",
        dest="renames",
        help="rename the node at this start label (repeatable)",
    )
    upd.add_argument(
        "--replay", action="store_true",
        help="only replay the store's pending update-log tail (recovery)",
    )
    upd.add_argument(
        "--force-rebuild", action="store_true",
        help="rematerialize every view instead of repairing (baseline)",
    )

    adv = sub.add_parser(
        "advise",
        help="recommend views for a query, or replay a recorded"
             " workload log into an adopt/drop plan",
    )
    adv.add_argument("input", help="XML file path")
    adv.add_argument("query", nargs="?", default=None,
                     help="TPQ to optimize for (omit with --from-log)")
    adv.add_argument("--max-size", type=int, default=4,
                     help="largest candidate view (nodes)")
    adv.add_argument("--top", type=int, default=10,
                     help="show this many ranked candidates")
    adv.add_argument("--from-log", default=None, metavar="PATH",
                     dest="from_log",
                     help="replay a recorded WorkloadLog (JSON, from"
                          " `batch --record-log` or"
                          " OnlineAdvisor.log.save) and print the"
                          " deterministic adopt/drop plan")
    adv.add_argument("--budget", type=float, default=float(1 << 20),
                     help="storage budget in bytes for --from-log plans")
    adv.add_argument("--adopted", action="append", default=[],
                     metavar="XPATH", dest="adopted",
                     help="view currently adopted by the advisor"
                          " (repeatable; lets the offline replay decide"
                          " keeps/drops like the live controller)")

    ver = sub.add_parser(
        "verify-store",
        help="verify a store's page checksums and update log",
    )
    ver.add_argument("store", help="store directory (from `materialize`)")
    ver.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the machine-readable report")

    gc = sub.add_parser(
        "gc",
        help="reap archived store generations (MVCC snapshots) down to"
             " a disk budget",
    )
    gc.add_argument("store", help="store directory (from `materialize`)")
    gc.add_argument("--budget-bytes", type=int, default=0,
                    dest="budget_bytes",
                    help="keep at most this many bytes of archived"
                         " generations (default 0: reap everything"
                         " unpinned)")
    gc.add_argument("--list", action="store_true", dest="list_only",
                    help="report the archive without reaping")
    gc.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the machine-readable GC report")

    chaos = sub.add_parser(
        "chaos",
        help="answer queries from a store under a deterministic"
             " fault-injection plan (degrades, never wrong)",
    )
    chaos.add_argument("store", help="store directory (from `materialize`)")
    chaos.add_argument("--query", action="append", required=True,
                       dest="queries", help="TPQ to answer (repeatable)")
    chaos.add_argument(
        "--faults", default="seed=42;page-read=corrupt:0.5",
        help="fault plan, REPRO_FAULTS grammar:"
             " seed=N;site=kind:prob[:arg] — sites: page-read"
             " (corrupt|short), store-write (torn), wal-append"
             " (torn|garble), worker (kill|stall)",
    )
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker processes for the batch")
    chaos.add_argument("--deadline", type=float, default=30.0,
                       help="whole-batch deadline in seconds")

    srv = sub.add_parser(
        "serve",
        help="serve queries over HTTP with preemptible quanta"
             " (POST /query, GET /next, NDJSON streaming)",
    )
    srv.add_argument("store", nargs="?", default=None,
                     help="store directory (from `materialize`); or use"
                          " --input for an in-memory document")
    srv.add_argument("--input", default=None,
                     help="XML file to serve from memory (instead of a"
                          " store)")
    srv.add_argument("--view", action="append", default=None, dest="views",
                     help="view to register when serving --input"
                          " (repeatable)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8399,
                     help="listen port (0 picks a free one)")
    srv.add_argument("--quantum-ms", type=float, default=50.0,
                     help="wall-time quantum per request (0 disables)")
    srv.add_argument("--quantum-steps", type=int, default=0,
                     help="driver-step quantum per request (0 disables)")
    srv.add_argument("--page-size", type=int, default=1024,
                     dest="page_size",
                     help="max matches per quantum/page (0 disables)")
    srv.add_argument("--max-inflight", type=int, default=8,
                     help="concurrent-request ceiling (halves per"
                          " quarantined view)")
    srv.add_argument("--tenant-rate", type=float, default=0.0,
                     help="per-tenant requests/second (0 disables quotas)")
    srv.add_argument("--tenant-burst", type=int, default=20,
                     help="per-tenant burst capacity")
    srv.add_argument("--drain-grace", type=float, default=5.0,
                     help="seconds to let in-flight quanta finish on"
                          " shutdown")

    lint = sub.add_parser(
        "lint", help="run the repro-lint invariant checker"
                     " (RL103, RL105-RL107 per-file, RL201-RL206"
                     " whole-program)"
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the whole"
                           " repro package; the call graph then covers"
                           " only the subset)")
    lint.add_argument("--root", default=None,
                      help="package root for rule scoping (default: the"
                           " installed repro package)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file (default: .repro-lint-baseline"
                           ".json at the repo root)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the machine-readable JSON report")
    lint.add_argument("--sarif", default=None, metavar="FILE",
                      help="also write a SARIF 2.1.0 report to FILE"
                           " ('-' for stdout)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline from current findings")
    lint.add_argument("--graph", action="store_true",
                      help="print call-graph statistics instead of"
                           " findings")
    lint.add_argument("--effects", default=None, metavar="QUALNAME",
                      help="print direct + inherited effects (with call-"
                           "chain witnesses) for functions matching"
                           " QUALNAME instead of findings")
    lint.add_argument("--changed", action="store_true",
                      help="analyze the whole package but report only"
                           " findings in files changed vs git HEAD")
    lint.add_argument("--no-cache", action="store_true",
                      help="skip the per-module analysis cache"
                           " (.repro-lint-cache.json)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = xmark_data if args.dataset == "xmark" else nasa_data
    document = generator.generate(scale=args.scale, seed=args.seed)
    write_xml_file(document, args.output)
    print(f"wrote {args.output}: {document.summary()}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    document = parse_xml_file(args.input)
    summary = document.summary()
    rows = [[key, value] for key, value in summary.items()]
    tag_counts = sorted(
        ((tag, document.tag_count(tag)) for tag in document.tags()),
        key=lambda item: -item[1],
    )
    print(format_table(["stat", "value"], rows))
    print()
    print(format_table(["tag", "count"], tag_counts[:20]))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    document = parse_xml_file(args.input)
    query = parse_pattern(args.query)
    views = [parse_pattern(text) for text in args.views]
    with ViewCatalog(document) as catalog:
        result = evaluate(
            query, catalog, views, args.algorithm, args.scheme,
            mode=args.mode, emit_matches=args.show_matches > 0,
        )
    print(f"matches: {result.match_count}")
    print(f"counters: {result.counters.as_dict()}")
    print(f"io: {result.io.as_dict()}")
    _print_matches(query, result, args.show_matches)
    return 0


def _print_matches(query, result, limit: int) -> None:
    """The first ``limit`` matches, one line each: sliced from the
    result's columns, no other match is built."""
    head = [column[:limit] for column in result.columns]
    for starts in zip(*head):
        print("  " + ", ".join(
            f"{tag}@{start}" for tag, start in zip(query.tags(), starts)
        ))


def _cmd_select(args: argparse.Namespace) -> int:
    document = parse_xml_file(args.input)
    query = parse_pattern(args.query)
    candidates = [parse_pattern(text) for text in args.candidates]
    selection = select_views(
        candidates, query, ExactSizes(document), lam=args.lam
    )
    rows = [
        [key, round(cost.io_term, 1), round(cost.cpu_term, 1),
         round(cost.total, 1)]
        for key, cost in selection.costs.items()
    ]
    print(format_table(["view", "io", "cpu", "c(v,Q)"], rows))
    print()
    print("selected:", [view.to_xpath() for view in selection.selected])
    print("complete cover:", selection.complete)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    dataset, kind = args.name.split("-")
    if dataset == "xmark":
        document = xmark_data.generate(scale=args.scale, seed=args.seed)
        specs = (xmark_workload.PATH_QUERIES if kind == "paths"
                 else xmark_workload.TWIG_QUERIES)
    else:
        document = nasa_data.generate(scale=args.scale, seed=args.seed)
        specs = (nasa_workload.PATH_QUERIES if kind == "paths"
                 else nasa_workload.TWIG_QUERIES)
    records = run_query_matrix(
        document, specs, dataset=args.name,
        workers=args.workers, repeats=args.repeats,
    )
    print(format_records(records, metric=args.metric))
    return 0


def _cmd_space(args: argparse.Namespace) -> int:
    from repro.storage.catalog import materialize

    document = parse_xml_file(args.input)
    rows = []
    for text in args.views:
        pattern = parse_pattern(text)
        sizes = {}
        pointers = {}
        for scheme in ("E", "T", "LE", "LEp"):
            view = materialize(document, pattern, scheme)
            sizes[scheme] = view.size_bytes
            stats = getattr(view, "pointer_stats", None)
            if stats is not None:
                pointers[scheme] = stats.total
        rows.append(
            [text, sizes["E"], sizes["T"], sizes["LE"], sizes["LEp"],
             pointers.get("LE", 0), pointers.get("LEp", 0)]
        )
    print(format_table(
        ["view", "E", "T", "LE", "LEp", "#ptr LE", "#ptr LEp"], rows
    ))
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_combo

    generator = xmark_data if args.dataset == "xmark" else nasa_data
    query = parse_pattern(args.query)
    views = [parse_pattern(text) for text in args.views]
    rows = []
    for scale_text in args.scales.split(","):
        scale = float(scale_text)
        document = generator.generate(scale=scale, seed=args.seed)
        with ViewCatalog(document) as catalog:
            record = run_combo(
                catalog, query, views, "VJ", "LE",
                dataset=f"{args.dataset}@{scale}",
            )
        rows.append(
            [scale, len(document), round(record.elapsed_s * 1e3, 2),
             record.work, record.peak_buffer_bytes, record.matches]
        )
    print(format_table(
        ["scale", "nodes", "ms", "work", "peak buffer B", "matches"], rows
    ))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import time

    from repro.selection import WorkloadLog
    from repro.service import QueryService

    log = WorkloadLog()
    with QueryService.open(
        args.store, result_cache_size=args.result_cache
    ) as service:
        service.warmup(args.queries)
        elapsed = []
        batch = None
        for __ in range(max(args.repeats, 1)):
            begin = time.perf_counter()
            if args.workers > 1:
                batch = service.evaluate_parallel(
                    args.queries, workers=args.workers, emit_matches=False,
                )
            else:
                batch = service.evaluate_batch(
                    args.queries, emit_matches=False,
                )
            elapsed.append(time.perf_counter() - begin)
            for outcome in batch.outcomes:
                log.record(outcome)
        assert batch is not None
        elapsed.sort()
        rows = [
            [outcome.query, outcome.combo, outcome.match_count,
             round(outcome.elapsed_s * 1e3, 2),
             "yes" if outcome.cached else ("refuted" if outcome.refuted
                                           else "no")]
            for outcome in batch.outcomes
        ]
        print(format_table(
            ["query", "combo", "matches", "ms", "cached"], rows
        ))
        print()
        print(f"batch wall-clock (median of {max(args.repeats, 1)}):"
              f" {elapsed[len(elapsed) // 2] * 1e3:.2f} ms"
              f" ({'parallel x' + str(args.workers) if args.workers > 1 else 'sequential'})")
        print(f"merged counters: {batch.counters.as_dict()}")
        print(f"merged io: {batch.io.as_dict()}")
        print(f"plan cache: {service.plan_cache_stats.as_dict()}")
        if args.result_cache:
            print(f"result cache: {service.result_cache_stats.as_dict()}")
        metrics = service.shared_metrics()
        print(
            "shared executor:"
            f" {metrics['jobs_run']} job(s) for"
            f" {metrics['queries']} query(ies) across"
            f" {metrics['batches']} batch(es);"
            f" {metrics['replayed_queries']} replayed,"
            f" {metrics['stream_hits']} stream hit(s);"
            f" executed work {metrics['executed_work']}"
        )
        if args.record_log is not None:
            log.harvest_catalog(service.catalog)
            log.save(args.record_log)
            print(
                f"workload log written to {args.record_log}:"
                f" {log.recorded} outcome(s), {len(log)} pattern(s),"
                f" {len(log.view_cardinalities)} calibrated view(s)"
            )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json

    from repro.errors import MaintenanceError
    from repro.maintenance import (
        DeleteSubtree,
        RenameTag,
        delta_from_dict,
        recover_store,
        update_store,
    )

    if args.replay:
        replayed = recover_store(args.store)
        print(f"replayed {replayed} pending update-log record(s)")
        return 0
    deltas = []
    for text in args.inserts:
        payload = json.loads(text)
        payload.setdefault("kind", "insert-subtree")
        deltas.append(delta_from_dict(payload))
    deltas.extend(DeleteSubtree(root_start=start) for start in args.deletes)
    for text in args.renames:
        start, __, tag = text.partition(":")
        if not tag:
            raise MaintenanceError(
                f"--rename expects START:TAG, got {text!r}"
            )
        deltas.append(RenameTag(node_start=int(start), new_tag=tag))
    if not deltas:
        print("nothing to do: pass --insert/--delete/--rename or --replay")
        return 1
    report = update_store(
        args.store, deltas, force_rebuild=args.force_rebuild
    )
    summary = report.as_dict()
    print(
        f"applied {summary['deltas']} delta(s):"
        f" +{summary['nodes_inserted']} node(s),"
        f" -{summary['nodes_deleted']} node(s),"
        f" {summary['renames']} rename(s)"
    )
    rows = [
        [row["view"], row["scheme"], row["action"], row["reason"]]
        for row in summary["views"]
    ]
    print(format_table(["view", "scheme", "action", "reason"], rows))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.selection import DocumentStatistics, recommend_for_workload

    if args.from_log is not None:
        return _cmd_advise_from_log(args)
    if args.query is None:
        print("pass a query, or --from-log to replay a workload log")
        return 1
    document = parse_xml_file(args.input)
    query = parse_pattern(args.query)
    # A single query is a workload of one: same candidates, same scoring,
    # same benefit-per-byte ranking as any workload.
    advice = recommend_for_workload(
        [query], DocumentStatistics.collect(document),
        max_view_size=args.max_size,
    )
    rows = [
        [chosen.view.to_xpath(), round(chosen.total_saving),
         round(chosen.estimated_bytes), round(chosen.density, 2)]
        for chosen in advice.chosen[: args.top]
    ]
    print(format_table(
        ["recommended view", "saving", "est. bytes", "saving/byte"], rows
    ))
    print()
    recommended = advice.assignments[query.to_xpath()]
    print("recommended:", [view.to_xpath() for view in recommended])
    covered = {tag for view in recommended for tag in view.tag_set()}
    uncovered = [tag for tag in query.tags() if tag not in covered]
    if uncovered:
        print("left to base views:", uncovered)
    total = sum(chosen.total_saving for chosen in advice.chosen)
    print(f"total estimated saving: {round(total)}")
    return 0


def _cmd_advise_from_log(args: argparse.Namespace) -> int:
    """Offline advisor replay: a recorded log deterministically yields
    the same adopt/drop plan the live controller would produce."""
    from repro.selection import (
        CalibratedStatistics,
        DocumentStatistics,
        WorkloadLog,
        estimate_view_bytes,
        plan_adoption,
    )

    log = WorkloadLog.load(args.from_log)
    document = parse_xml_file(args.input)
    stats = DocumentStatistics.collect(document)
    calibration = CalibratedStatistics.from_log(stats, log)
    # Offline we lack the live controller's measured footprints, so the
    # adopted set is costed through the calibrated byte estimate —
    # near-exact whenever the log carries the view's cardinalities.
    adopted = {
        xpath: estimate_view_bytes(calibration, parse_pattern(xpath))
        for xpath in args.adopted
    }
    plan = plan_adoption(
        log,
        calibration,
        budget_bytes=args.budget,
        adopted=adopted,
        max_view_size=args.max_size,
    )
    rows = [
        [d.action, d.xpath, round(d.benefit), round(d.bytes), d.reason]
        for d in plan.decisions[: args.top]
    ]
    print(format_table(["action", "view", "benefit", "bytes", "reason"],
                       rows))
    print()
    print(f"demand: {plan.demand_patterns} pattern(s) over"
          f" {log.recorded} recorded outcome(s),"
          f" {len(log.view_cardinalities)} calibrated view(s)")
    print("adopt:", [view.to_xpath() for view in plan.adopt] or "nothing")
    print("drop:", plan.drop or "nothing")
    print("keep:", plan.keep or "nothing")
    print(f"projected storage: {round(plan.projected_bytes)} /"
          f" {round(plan.budget_bytes)} bytes")
    for note in plan.notes:
        print(f"note: {note}")
    return 0


def _cmd_materialize(args: argparse.Namespace) -> int:
    from repro.storage.persistence import save_catalog

    document = parse_xml_file(args.input)
    with ViewCatalog(document) as catalog:
        for text in args.views:
            info = catalog.add(parse_pattern(text, name=text), args.scheme)
            print(
                f"materialized {text} [{args.scheme}]:"
                f" {info.size_bytes} bytes, {info.num_pointers} pointers"
            )
        save_catalog(catalog, args.store)
    print(f"store written to {args.store}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.planner import Planner
    from repro.storage.persistence import load_catalog

    catalog = load_catalog(args.store)
    try:
        planner = Planner(catalog)
        planner.adopt_catalog_views()
        plan, result = planner.answer(
            args.query, emit_matches=args.show_matches > 0
        )
        print(plan.describe())
        print(f"matches: {result.match_count}")
        print(f"counters: {result.counters.as_dict()}")
        _print_matches(plan.query, result, args.show_matches)
    finally:
        catalog.close()
    return 0


def _cmd_verify_store(args: argparse.Namespace) -> int:
    import json

    from repro.resilience import verify_store

    report = verify_store(args.store)
    summary = report.as_dict()
    if args.as_json:
        print(json.dumps(summary, indent=2))
        return 0 if report.ok else 1
    rows = [[key, value] for key, value in summary.items()
            if key not in ("bad_views",)]
    print(format_table(["check", "value"], rows))
    if report.bad_views:
        print()
        print(format_table(
            ["damaged view", "bad pages"],
            [[name, ", ".join(map(str, pages))]
             for name, pages in sorted(report.bad_views.items())],
        ))
    print()
    print("store OK" if report.ok else "store CORRUPT")
    return 0 if report.ok else 1


def _cmd_gc(args: argparse.Namespace) -> int:
    import json

    from repro.storage.generations import (
        list_generations,
        reap_generations,
    )

    if args.list_only:
        generations = list_generations(args.store)
        # A huge budget reaps nothing but still measures the archive.
        report = reap_generations(
            args.store, 1 << 62, pinned=set(generations)
        )
    else:
        report = reap_generations(args.store, args.budget_bytes)
    summary = report.as_dict()
    if args.as_json:
        print(json.dumps(summary, indent=2))
        return 0
    rows = [[key, value] for key, value in summary.items()]
    print(format_table(["field", "value"], rows))
    if not args.list_only:
        print()
        print(
            f"reaped {len(report.reaped)} generation(s):"
            f" {report.bytes_before} -> {report.bytes_after} bytes"
            f" (budget {report.budget_bytes})"
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience import FaultPlan
    from repro.resilience import faults as fault_state
    from repro.service import QueryService

    plan = FaultPlan.parse(args.faults)
    print(f"fault plan: {plan.describe()}")
    with QueryService.open(args.store) as service:
        service.warmup(args.queries)
        service.snapshot()  # pay the snapshot save before faults arm
        fault_state.install(plan)
        try:
            batch = service.evaluate_parallel(
                args.queries,
                workers=args.workers,
                emit_matches=False,
                deadline_s=args.deadline,
            )
        finally:
            fault_state.uninstall()
        rows = [
            [outcome.query, outcome.match_count,
             "degraded" if outcome.degraded
             else (outcome.error or "ok")]
            for outcome in batch.outcomes
        ]
        print(format_table(["query", "matches", "status"], rows))
        print()
        metrics = service.resilience_metrics()
    print(f"quarantined: {metrics['quarantined_views'] or 'none'}")
    print(f"degraded queries: {metrics['degraded_queries']},"
          f" failed: {metrics['failed_queries']},"
          f" retries: {metrics['job_retries']},"
          f" pool respawns: {metrics['pool_respawns']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.server import ServerConfig, ViewJoinServer
    from repro.service import QueryService

    if (args.store is None) == (args.input is None):
        print("serve: pass exactly one of STORE or --input",
              file=sys.stderr)
        return 2
    if args.store is not None:
        service = QueryService.open(args.store)
    else:
        document = parse_xml_file(args.input)
        catalog = ViewCatalog(document)
        service = QueryService(catalog)
        for view in args.views or ():
            service.register(view)
    config = ServerConfig(
        host=args.host, port=args.port,
        quantum_ms=args.quantum_ms, quantum_steps=args.quantum_steps,
        quantum_matches=args.page_size, max_inflight=args.max_inflight,
        tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst,
        drain_grace_s=args.drain_grace,
    )
    server = ViewJoinServer(service, config)

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        budget = config.budget()
        print(f"viewjoin serve on http://{args.host}:{server.port}"
              f" (quantum: {budget.as_dict() if budget else 'unbounded'})")
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("draining…")
        await server.drain()
        serving.cancel()

    try:
        asyncio.run(_serve())
    finally:
        service.close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.baseline import write_baseline
    from repro.analysis.dataflow import pretty_chain
    from repro.analysis.reporters import (
        render_json,
        render_sarif,
        render_text,
    )
    from repro.analysis.runner import (
        changed_paths,
        default_baseline_path,
        default_cache_path,
        lint_package,
    )

    root = Path(args.root) if args.root else None
    baseline = Path(args.baseline) if args.baseline else None
    paths = [Path(p) for p in args.paths] if args.paths else None
    cache = None
    if not args.no_cache and root is None and paths is None:
        # cache only the canonical whole-package run: fixture trees and
        # subsets would poison the keyed-by-path module entries
        cache = default_cache_path()
    report_paths = changed_paths(root) if args.changed else None
    report = lint_package(
        root=root, paths=paths, baseline_path=baseline,
        cache_path=cache, report_paths=report_paths,
    )
    program = report.program

    if args.graph:
        stats = program.graph.stats()
        for key in sorted(stats):
            print(f"{key}: {stats[key]}")
        return 0

    if args.effects:
        nodes = program.graph.find(args.effects)
        if not nodes:
            print(f"no function matches {args.effects!r}")
            return 1
        for node in nodes:
            info = program.effects.describe(node)
            print(node)
            print(f"  direct: {', '.join(info['direct']) or '(none)'}")
            inherited = info["inherited"]
            if not inherited:
                print("  inherited: (none)")
            for effect, chain in sorted(inherited.items()):
                print(f"  inherited {effect!r} via"
                      f" {pretty_chain(chain) if chain else '(unknown)'}")
        return 0

    if args.write_baseline:
        target = baseline or default_baseline_path()
        write_baseline(target, report.all_findings())
        print(f"baseline written to {target}"
              f" ({len(report.all_findings())} finding(s))")
        return 0
    if args.sarif:
        sarif = render_sarif(report)
        if args.sarif == "-":
            print(sarif)
        else:
            Path(args.sarif).write_text(sarif + "\n", encoding="utf-8")
    if args.as_json:
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
