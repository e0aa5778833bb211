"""CI smoke: replay a canned update log against a golden rebuild.

Builds a deterministic store, appends a fixed WAL (insert, rename,
delete — one of each delta kind), and replays it through
:func:`repro.maintenance.engine.recover_store` exactly the way a crashed
maintenance commit would be finished on reattach.  The recovered store
must be byte-identical (page payloads, entry counts, pointer stats) to a
store materialized fresh from the final document, and its query answers
must equal the naive ground truth.  Fast (< a few seconds), runs on
every CI pass.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path


def fingerprint(catalog):
    rows = {}
    for (name, scheme), info in catalog.entries():
        payload = []
        for tag, stored in sorted(info.view.lists.items()):
            manifest = stored.manifest()
            ids = (manifest["page_ids"] if "page_ids" in manifest
                   else [row[2] for row in manifest["directory"]])
            payload.append((tag, len(stored), tuple(
                catalog.pager.page_file.read_page_raw(i) for i in ids
            )))
        rows[(name, scheme.value)] = (
            tuple(payload),
            info.num_pointers,
            info.view.pointer_stats.as_dict(),
        )
    return rows


def main() -> int:
    from repro.datasets import random_trees
    from repro.maintenance import (
        DeleteSubtree,
        InsertSubtree,
        RenameTag,
        UpdateLog,
        WAL_FILENAME,
        apply_deltas,
        apply_updates,
        recover_store,
    )
    from repro.service import QueryService
    from repro.storage.catalog import ViewCatalog
    from repro.storage.persistence import (
        load_catalog,
        read_store_version,
        save_catalog,
    )
    from repro.tpq.naive import find_embeddings
    from repro.tpq.parser import parse_pattern

    doc = random_trees.generate(size=200, max_depth=8, seed=3)
    patterns = [("//a//b", "w1"), ("//c", "w2")]
    # The canned log: a shift (alien tag), a rebuild trigger (rename to
    # a viewed tag) and a structural delete.  Each delta addresses the
    # document produced by the previous ones, exactly as a producer
    # would have written them.
    deltas = [
        InsertSubtree(parent_start=doc.nodes[0].start, position=0,
                      rows=(("zzz", 0), ("zzz", 1))),
    ]
    step, __ = apply_deltas(doc, deltas)
    deltas.append(RenameTag(node_start=step.nodes[4].start, new_tag="c"))
    step, __ = apply_deltas(step, deltas[-1:])
    deltas.append(DeleteSubtree(root_start=step.nodes[10].start))
    final, __ = apply_deltas(step, deltas[-1:])

    with tempfile.TemporaryDirectory(prefix="repro-maint-smoke-") as tmp:
        store = Path(tmp) / "store"
        with ViewCatalog(doc) as catalog:
            for xpath, name in patterns:
                catalog.add(parse_pattern(xpath, name=name), "LEp")
            save_catalog(catalog, store)
            # The same commit in memory: the repair actions recovery
            # will take, one per view.
            actions = apply_updates(catalog, deltas).action_counts()
        unknown = set(actions) - {"noop", "shift", "rebuild", "drop"}
        assert not unknown, f"unknown repair actions {sorted(unknown)}"

        # Append the canned WAL out-of-band — the store now looks like a
        # maintenance commit that logged its deltas and died before
        # repairing any pages.
        UpdateLog(store / WAL_FILENAME).append(deltas)
        replayed = recover_store(store)
        assert replayed == len(deltas), replayed
        assert recover_store(store) == 0, "replay must be idempotent"
        version, wal_lsn = read_store_version(store)
        assert (version, wal_lsn) == (2, len(deltas)), (version, wal_lsn)

        recovered = load_catalog(store)
        with ViewCatalog(final) as golden:
            for xpath, name in patterns:
                golden.add(parse_pattern(xpath, name=name), "LEp")
            assert fingerprint(recovered) == fingerprint(golden), (
                "recovered store diverges from golden rebuild"
            )
        recovered.close()

        with QueryService.open(str(store)) as service:
            for query in ["//a//b", "//c", "//a//b//c"]:
                truth = sorted(
                    tuple(n.start for n in m)
                    for m in find_embeddings(final, parse_pattern(query))
                )
                outcome = service.evaluate(query)
                assert outcome.match_keys == truth, query
    print(
        "maintenance smoke ok:"
        f" replayed {len(deltas)}-delta WAL, recovered store byte-equal"
        " to golden rebuild, answers match ground truth;"
        f" actions {dict(sorted(actions.items()))}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
