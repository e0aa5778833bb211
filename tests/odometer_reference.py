"""The retired odometer enumerator, kept as a differential reference.

Until PR 12 this explicit-stack DFS over the preorder slots was
``repro.tpq.enumeration.iter_matches``.  It re-walks every sibling
subtree once per binding of the siblings before it, which is why it left
``src/``; it shares no code with the factorized ``MatchPlan``, which is
why it stays here: ``tests/test_enumeration.py`` checks the two against
each other and against ``tpq.naive.find_embeddings``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Mapping, Sequence, TypeVar

from repro.errors import PatternError
from repro.tpq.pattern import Pattern

Entry = TypeVar("Entry")


def odometer_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> Iterator[tuple[Entry, ...]]:
    """Yield matches in unspecified order.

    Implemented as an explicit odometer DFS over the preorder slots: a
    node's admissible range depends only on its parent's binding, and the
    preorder puts every parent before its children, so sweeping the slots
    left-to-right enumerates exactly the cross product the recursive
    formulation produces — without a generator frame per binding.
    """
    nodes = pattern.nodes  # preorder, aligned with pattern.tags()
    missing = [node.tag for node in nodes if node.tag not in candidates]
    if missing:
        raise PatternError(f"candidate lists missing for tags {missing}")
    n = len(nodes)
    slot_of = {node.tag: i for i, node in enumerate(nodes)}
    pools = [candidates[node.tag] for node in nodes]
    sizes = [len(pool) for pool in pools]
    starts = [[entry.start for entry in pool] for pool in pools]
    parent_of = [
        slot_of[node.parent.tag] if node.parent is not None else -1
        for node in nodes
    ]
    is_pc = [node.axis.is_pc for node in nodes]

    assignment: list[Entry | None] = [None] * n
    cursor = [0] * n  # next candidate index to try at each slot
    last = n - 1
    k = 0
    while k >= 0:
        if k == 0:
            i = cursor[0]
            if i >= sizes[0]:
                return
            cursor[0] = i + 1
            found = pools[0][i]
        else:
            parent = assignment[parent_of[k]]
            parent_end = parent.end
            want_level = parent.level + 1
            pool = pools[k]
            pc = is_pc[k]
            size = sizes[k]
            i = cursor[k]
            found = None
            while i < size:
                entry = pool[i]
                i += 1
                if entry.start >= parent_end:
                    i = size  # sorted by start: nothing further fits
                    break
                if pc and entry.level != want_level:
                    continue
                found = entry
                break
            cursor[k] = i
        if found is None:
            k -= 1
            continue
        assignment[k] = found
        if k == last:
            yield tuple(assignment)  # type: ignore[arg-type]
        else:
            k += 1
            cursor[k] = bisect_right(
                starts[k], assignment[parent_of[k]].start
            )
