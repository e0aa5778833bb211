"""Seeded random update sequences for maintenance testing.

Lives under ``repro.datasets`` (the only package allowed to use
``random``, per RL103) so the property tests and the maintenance
benchmark share one deterministic delta workload generator.

A sequence is generated against an evolving document: each delta is
drawn against the document produced by the previous ones, so node
addresses (pre-delta start labels) are always valid when the sequence
is replayed in order through
:func:`repro.maintenance.apply.apply_deltas` or committed through
:func:`repro.maintenance.engine.apply_updates`.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import DatasetError
from repro.maintenance.apply import apply_delta
from repro.maintenance.deltas import (
    Delta,
    DeleteSubtree,
    InsertSubtree,
    RenameTag,
)
from repro.xmltree.document import Document

#: Relative odds of each delta kind in a generated sequence.  Inserts
#: dominate slightly so documents tend to grow, keeping later deletes
#: well-supplied with victims.
_KIND_WEIGHTS = (("insert", 3), ("delete", 2), ("rename", 2))


def random_update_sequence(
    document: Document,
    count: int = 5,
    seed: int = 0,
    tag_pool: Sequence[str] | None = None,
    max_subtree: int = 5,
    avoid_tags: Sequence[str] = (),
) -> tuple[list[Delta], Document]:
    """Generate ``count`` valid deltas against (an evolving) ``document``.

    Args:
        document: the starting document (not modified).
        count: number of deltas to generate.
        seed: RNG seed — same inputs, same sequence.
        tag_pool: element types used for inserted/renamed nodes; defaults
            to the document's own vocabulary, which maximizes interaction
            with materialized views (the interesting case).  Alien tags
            can be mixed in to exercise the pure-shift repair path.
        max_subtree: largest inserted subtree, in nodes.
        avoid_tags: element types the edits must stay structurally
            disjoint from — no insert/rename introduces them, no rename
            removes them, and no delete victim's subtree contains them.
            Pass a catalog's view vocabulary to generate the workload
            every view absorbs as a pure label SHIFT (the maintenance
            benchmark); the empty default leaves victims unconstrained.

    Returns:
        ``(deltas, final_document)`` — the final document equals
        ``apply_deltas(document, deltas)``'s result and is returned so
        callers can assert against it without re-applying.
    """
    if count < 0:
        raise DatasetError(f"delta count must be >= 0, got {count}")
    if max_subtree < 1:
        raise DatasetError(f"max_subtree must be >= 1, got {max_subtree}")
    rng = random.Random(seed)
    avoid = frozenset(avoid_tags)
    pool = list(tag_pool) if tag_pool is not None else sorted(
        document.tags() - avoid
    )
    if avoid.intersection(pool):
        raise DatasetError(
            f"tag pool overlaps avoid_tags: {sorted(avoid.intersection(pool))}"
        )
    if not pool:
        raise DatasetError("empty tag pool")
    deltas: list[Delta] = []
    for __ in range(count):
        kinds = [kind for kind, weight in _KIND_WEIGHTS for _ in range(weight)]
        kind = rng.choice(kinds)
        if kind == "delete" and len(document.nodes) <= 1:
            kind = "insert"  # only the root left: nothing deletable
        if kind == "insert":
            delta: Delta = _random_insert(rng, document, pool, max_subtree)
        elif kind == "delete":
            delta = _random_delete(rng, document, avoid)
            if delta is None:  # every subtree holds an avoided tag
                delta = _random_insert(rng, document, pool, max_subtree)
        else:
            delta = _random_rename(rng, document, pool, avoid)
            if delta is None:  # every node carries an avoided tag
                delta = _random_insert(rng, document, pool, max_subtree)
        applied = apply_delta(document, delta)
        document = applied.document
        deltas.append(delta)
    return deltas, document


def _random_insert(
    rng: random.Random,
    document: Document,
    pool: Sequence[str],
    max_subtree: int,
) -> InsertSubtree:
    parent = rng.choice(document.nodes)
    position = rng.randrange(len(document.children(parent)) + 1)
    size = rng.randrange(1, max_subtree + 1)
    rows: list[tuple[str, int]] = [(rng.choice(pool), 0)]
    depth = 0
    for __ in range(size - 1):
        # Next row may sit anywhere from just under the root to one level
        # below the previous row (deeper would skip a level); the random
        # walk yields chains, bushes and mixes alike.
        depth = rng.randrange(1, depth + 2)
        rows.append((rng.choice(pool), depth))
    return InsertSubtree(
        parent_start=parent.start, position=position, rows=tuple(rows)
    )


def _random_delete(
    rng: random.Random, document: Document, avoid: frozenset[str] = frozenset()
) -> DeleteSubtree | None:
    candidates = document.nodes[1:]  # never the root
    for __ in range(len(candidates)):
        victim = rng.choice(candidates)
        if avoid and (
            victim.tag in avoid
            or any(n.tag in avoid for n in document.descendants(victim))
        ):
            continue  # rejection-sample an avoid_tags-disjoint subtree
        return DeleteSubtree(root_start=victim.start)
    return None


def _random_rename(
    rng: random.Random,
    document: Document,
    pool: Sequence[str],
    avoid: frozenset[str] = frozenset(),
) -> RenameTag | None:
    for __ in range(len(document.nodes)):
        node = rng.choice(document.nodes)
        if node.tag in avoid:
            continue  # renaming it away would touch an avoided type
        return RenameTag(node_start=node.start, new_tag=rng.choice(pool))
    return None
