"""CI smoke: MVCC snapshot reads stay exact under a sustained update storm.

Builds a deterministic store, pins a generation, suspends a paginated
quantum chain, then interleaves ≥200 commit/read sequences (a seeded
stall-only :class:`~repro.resilience.faults.FaultPlan` installed the
whole time — benign latency, never data loss, so the acceptance bar is
**zero** failed and **zero** degraded reads, not "correct or typed"):

* every fresh read must equal the naive ground truth of the *current*
  document;
* every ``as_of`` read must equal the ground truth captured when the
  generation was pinned;
* the suspended chain, resumed across the whole storm, must drain
  byte-identical (pages + counters) to its pre-storm one-shot run;
* generation GC under a zero budget must keep the archive at exactly
  the pinned generation, never reaping it;
* after the service is closed and the store reopened, every kept
  generation — an archive of hard links to files later commits
  replaced — must load with ``load_catalog(generation=g)`` and answer
  exactly the ground truth captured when it was pinned, and the reopened
  current generation the truth of the last commit.

A hard watchdog fails the run if it wedges; the CI wrapper additionally
bounds the wall clock with ``timeout``.
"""

from __future__ import annotations

import faulthandler
import random
import sys
import tempfile
from pathlib import Path

FAULTS = "seed=97;worker=stall:0.2:0.002"
QUERIES = ["//a//b//c", "//a[//b]//c", "//a//b"]
QUERY = "//a[//b]//c"
ROUNDS = 90
WATCHDOG_S = 240.0


def main() -> int:
    faulthandler.enable()
    # Dump-and-exit if the storm wedges: a hang is a failure, not a wait.
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    from repro.algorithms.preempt import QuantumBudget
    from repro.datasets import random_trees
    from repro.maintenance import DeleteSubtree, InsertSubtree
    from repro.resilience import FaultPlan, faults
    from repro.service import QueryService
    from repro.storage.catalog import ViewCatalog
    from repro.storage.generations import list_generations
    from repro.storage.persistence import load_catalog, save_catalog
    from repro.tpq.naive import find_embeddings
    from repro.tpq.parser import parse_pattern

    def truth(doc, query):
        return sorted(
            tuple(n.start for n in m)
            for m in find_embeddings(doc, parse_pattern(query))
        )

    def one_delta(service, rng):
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

    doc = random_trees.generate(size=260, max_depth=9, seed=41)
    rng = random.Random(41)

    with tempfile.TemporaryDirectory(prefix="repro-mvcc-") as tmp:
        store = Path(tmp) / "store"
        with ViewCatalog(doc) as catalog:
            catalog.add(parse_pattern("//a//b", name="w1"), "LEp")
            catalog.add(parse_pattern("//c", name="w2"), "LEp")
            save_catalog(catalog, store)

        with QueryService.open(str(store)) as service:
            service.warmup(QUERIES)
            one = service.evaluate(QUERY)
            suspended = service.evaluate_quantum(
                QUERY, budget=QuantumBudget(max_steps=1)
            )
            if suspended.done:
                print("FAIL: quantum chain finished before the storm")
                return 1
            pages = list(suspended.page)
            pin = service.pin_generation()
            at_pin = {q: sorted(service.evaluate(q).match_keys)
                      for q in QUERIES}
            pin_truth = {q: truth(service.catalog.document, q)
                         for q in QUERIES}
            faults.install(FaultPlan.parse(FAULTS))
            commits = reads = 0
            try:
                for round_no in range(ROUNDS):
                    commits += service.apply_updates(
                        [one_delta(service, rng)]
                    ).deltas
                    query = QUERIES[round_no % len(QUERIES)]
                    fresh = service.evaluate(query)
                    if fresh.error or fresh.degraded:
                        print(f"FAIL: fresh read not clean at round"
                              f" {round_no}: error={fresh.error!r}"
                              f" degraded={fresh.degraded}")
                        return 1
                    if sorted(fresh.match_keys) != truth(
                        service.catalog.document, query
                    ):
                        print(f"FAIL: fresh read wrong at round {round_no}")
                        return 1
                    snap = service.evaluate(query, as_of=pin)
                    if snap.error or snap.degraded:
                        print(f"FAIL: pinned read not clean at round"
                              f" {round_no}")
                        return 1
                    if sorted(snap.match_keys) != at_pin[query]:
                        print(f"FAIL: pinned read drifted at round"
                              f" {round_no}")
                        return 1
                    reads += 2
                    if round_no % 15 == 0:
                        batch = service.evaluate_parallel(
                            QUERIES, workers=2, deadline_s=60.0
                        )
                        for outcome in batch.outcomes:
                            if outcome.error or outcome.degraded:
                                print("FAIL: parallel read not clean at"
                                      f" round {round_no}:"
                                      f" {outcome.query}")
                                return 1
                        reads += len(batch.outcomes)
                    if not suspended.done:
                        # One more page of the suspended chain, pinned
                        # to its pre-storm generation, every round.
                        suspended = service.resume_quantum(suspended.token)
                        pages.extend(suspended.page)
                        reads += 1
            finally:
                faults.uninstall()

            while not suspended.done:
                suspended = service.resume_quantum(suspended.token)
                pages.extend(suspended.page)
            if pages != list(one.match_keys):
                print("FAIL: resumed chain pages diverged from one-shot")
                return 1
            if suspended.counters.as_dict() != one.counters.as_dict():
                print("FAIL: resumed chain counters diverged")
                return 1

            report = service.gc_generations(budget_bytes=0)
            if pin in report.reaped:
                print("FAIL: GC reaped a pinned generation")
                return 1
            surviving = list_generations(store)
            if surviving != [pin]:
                print(f"FAIL: archive not reduced to the pin: {surviving}")
                return 1
            service.unpin_generation(pin)

            metrics = service.resilience_metrics()
            if metrics["failed_queries"] or metrics["degraded_queries"]:
                print(f"FAIL: storm saw {metrics['failed_queries']} failed"
                      f" / {metrics['degraded_queries']} degraded reads")
                return 1
            final = {q: truth(service.catalog.document, q) for q in QUERIES}
            truths = {pin: pin_truth, service.generation: final}

        # Restart: a fresh service over the store, then every kept
        # generation attached on its own from its archived links.
        with QueryService.open(str(store)) as service:
            for query in QUERIES:
                if sorted(service.evaluate(query).match_keys) != final[query]:
                    print(f"FAIL: reopened store answers {query} wrong")
                    return 1
        kept = list_generations(store)
        for generation in kept:
            with load_catalog(store, generation=generation) as catalog, \
                    QueryService(catalog) as archived:
                archived.adopt_catalog_views()
                for query in QUERIES:
                    keys = sorted(archived.evaluate(query).match_keys)
                    if keys != truths[generation][query]:
                        print(f"FAIL: generation {generation} answers"
                              f" {query} wrong after the restart")
                        return 1

        print(f"fault plan    : {FAULTS}")
        print(f"storm         : {commits} commits / {reads} reads"
              f" ({commits + reads} interleaved sequences)")
        print(f"generations   : {metrics['generations_reaped']} reaped,"
              f" pinned generation {pin} survived every sweep")
        print(f"chain         : {suspended.quanta} quanta,"
              f" byte-identical across the storm")
        print(f"restart       : generations {kept} reloaded, answers"
              f" equal to their pin-time truth")
        if commits + reads < 200:
            print("FAIL: storm too small to count as acceptance evidence")
            return 1
        print("PASS: zero failed, zero degraded reads across the storm")
    faulthandler.cancel_dump_traceback_later()
    return 0


if __name__ == "__main__":
    sys.exit(main())
