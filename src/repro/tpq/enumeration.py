"""Output enumeration: expand per-node candidate lists into full matches.

Given a pattern and, for every pattern node, a document-ordered list of
candidate data nodes (any objects carrying ``start``/``end``/``level``),
:func:`enumerate_matches` produces every embedding that can be assembled
from the candidates.  Structural checks are done purely on region labels:

* ad-edge: the child candidate's region nests inside the parent's;
* pc-edge: nesting plus ``child.level == parent.level + 1`` (region labels
  of ancestors have pairwise distinct levels, so this pins the parent).

The enumeration is **factorized**.  Pattern nodes are visited children
first; for every candidate of a node, the matches of the pattern subtree
rooted there are computed exactly once and stored contiguously, in
candidate order.  The candidates of a child that fall inside a parent
candidate's region form one index range of the child's sorted pool
(binary search), so the child's sub-matches under that parent are one
slice of the stored list, and a branching node's matches are the product
of its children's slices — built by list comprehensions, never one
interpreted step per (binding, sibling sub-match) pair.

It is also **output-sensitive**: no sub-match is built before two walks
over integers have run.  The first, children first, does the binary
searches and counts the sub-matches under every candidate; the second,
parents first, drops the candidates that no match contains (no
sub-match below, or no surviving parent above) wherever they would
outweigh the output.  What is then expanded is at most (pattern size) x
(number of matches) sub-matches, so candidates a filter would have
dropped cost integer work, not tuples.

The order needs no sort.  Slot ``i`` of an output tuple is the ``i``-th
pattern node in preorder, so a subtree owns a contiguous run of slots
and a match is the parent's entry followed by its children's sub-matches
in child order.  Pools are in document order, hence (by induction from
the leaves) every stored sub-match list is strictly increasing in its
tuple of start labels, and the product — first child outermost — is
again strictly increasing.

It is shared by the tuple-scheme materializer and by every algorithm's
final "output matches" phase, which guarantees all engines emit
byte-identical results whenever their filtered candidate sets agree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Mapping, Sequence, TypeVar

from repro.errors import PatternError
from repro.tpq.pattern import Pattern

Entry = TypeVar("Entry")


class MatchPlan:
    """A pattern's slot structure, compiled once and run per candidate set.

    Engines flush one candidate set per partition (hundreds per query on
    many-root documents), so everything that depends only on the pattern
    — preorder tags, each node's child slots and edge kinds, the visiting
    orders — is resolved here, not per flush.
    """

    __slots__ = ("tags", "_pc", "_steps", "_inner_edges")

    def __init__(self, pattern: Pattern):
        nodes = pattern.nodes  # preorder: a node's slot is its index
        slot_of = {node.tag: slot for slot, node in enumerate(nodes)}
        self.tags: tuple[str, ...] = tuple(node.tag for node in nodes)
        #: per slot: is the edge from the parent a pc-edge (never the root)
        self._pc = tuple(
            node.parent is not None and node.axis.is_pc for node in nodes
        )
        # (slot, child slots), in reverse preorder: children come first.
        self._steps = tuple(
            (slot, tuple(slot_of[child.tag] for child in nodes[slot].children))
            for slot in range(len(nodes) - 1, -1, -1)
        )
        # (slot, child slot) for every child that has children itself, in
        # preorder: parents come first.
        self._inner_edges = tuple(
            (slot, child)
            for slot, children in reversed(self._steps)
            for child in children
            if nodes[child].children
        )

    def _bind(self, candidates: Mapping[str, Sequence[Entry]]):
        """The candidate pools by slot."""
        try:
            return [candidates[tag] for tag in self.tags]
        except KeyError:
            missing = [tag for tag in self.tags if tag not in candidates]
            raise PatternError(
                f"candidate lists missing for tags {missing}"
            ) from None

    def _survey(self, pools):
        """``(admits, counts, sums)`` by slot: the walk that reads labels.

        ``admits[c][j]`` says which candidates of slot ``c`` candidate ``j``
        of ``c``'s parent admits: on an ad-edge the index range ``(lo, hi)``
        of the starts inside its region, on a pc-edge the list of indexes
        in that range at the right ``level``.  ``counts[s][j]`` is the
        number of sub-matches rooted at candidate ``j`` of slot ``s``: the
        product, over child edges, of the summed counts of the admitted
        child candidates.  ``sums[s]`` are the prefix sums of ``counts[s]``
        (what makes an ad-edge's sum one subtraction).  Children first,
        integers only.
        """
        admits: list = [None] * len(pools)
        counts: list = [None] * len(pools)
        sums: list = [None] * len(pools)
        for slot, children in self._steps:
            pool = pools[slot]
            totals = [1] * len(pool)
            for child in children:
                child_pool = pools[child]
                child_starts = [entry.start for entry in child_pool]
                pc = self._pc[child]
                below = counts[child] if pc else sums[child]
                spans = admits[child] = []
                for j, entry in enumerate(pool):
                    lo = bisect_right(child_starts, entry.start)
                    hi = bisect_left(child_starts, entry.end, lo)
                    if pc:
                        want = entry.level + 1
                        picks = [
                            k
                            for k in range(lo, hi)
                            if child_pool[k].level == want
                        ]
                        spans.append(picks)
                        totals[j] *= sum([below[k] for k in picks])
                    else:
                        spans.append((lo, hi))
                        totals[j] *= below[hi] - below[lo]
            counts[slot] = totals
            sums[slot] = list(accumulate(totals, initial=0))
        return admits, counts, sums

    def _prune(self, admits, counts, sums) -> None:
        """Zero, in place, the counts of candidates that occur in no match.

        A candidate is live when it roots a sub-match and a live candidate
        of the parent slot admits it; the walk is parents first.  Every
        sub-match of a live candidate extends to a full match, so a slot's
        live sub-matches number at most the matches, and storing those
        only keeps the intermediates within (pattern size) x (output
        size), whatever the pools hold.  A slot whose sub-matches, dead
        ones included, are within that bound already is left as it is,
        and so are the leaf slots: a leaf candidate costs one 1-tuple.
        """
        total = sums[0][-1]
        for slot, child in self._inner_edges:
            if sums[child][-1] <= total:
                continue
            below = counts[child]
            live = [0] * len(below)
            if self._pc[child]:
                for picks, alive in zip(admits[child], counts[slot]):
                    if alive:
                        for k in picks:
                            live[k] = below[k]
            else:
                # Regions nest or are disjoint, and parents come by
                # ascending start: a range ending by `done` lies inside
                # one already copied.
                done = 0
                for (lo, hi), alive in zip(admits[child], counts[slot]):
                    if alive and hi > done:
                        live[lo:hi] = below[lo:hi]
                        done = hi
            counts[child] = live
            sums[child] = list(accumulate(live, initial=0))

    def matches(
        self, candidates: Mapping[str, Sequence[Entry]]
    ) -> list[tuple[Entry, ...]]:
        """All matches, strictly increasing in their tuple of starts.

        Output-sensitive: the integer walks come first, and sub-matches
        are built for the candidates :meth:`_prune` leaves a count.
        """
        pools = self._bind(candidates)
        admits, counts, sums = self._survey(pools)
        if not sums[0][-1]:
            return []
        self._prune(admits, counts, sums)
        pc = self._pc
        # found[s]: the sub-matches rooted at slot s, grouped by candidate
        # in pool order.  Candidate j owns counts[s][j] of them, so its
        # group is found[s][sums[s][j]:sums[s][j + 1]] and an admitted
        # index range is a single slice.
        found: list = [None] * len(pools)
        for slot, children in self._steps:
            pool = pools[slot]
            if not children:
                found[slot] = [(entry,) for entry in pool]
                continue
            out: list = []
            alive = counts[slot]
            for j, entry in enumerate(pool):
                if alive[j]:
                    head = (entry,)
                    partial = None
                    for child in children:
                        picks = admits[child][j]
                        below = found[child]
                        cuts = sums[child]
                        if pc[child]:
                            below = [
                                match
                                for k in picks
                                for match in below[cuts[k]:cuts[k + 1]]
                            ]
                        else:
                            below = below[cuts[picks[0]]:cuts[picks[1]]]
                        if partial is None:
                            partial = [head + match for match in below]
                        else:
                            partial = [
                                prefix + match
                                for prefix in partial
                                for match in below
                            ]
                    out += partial
            found[slot] = out
        return found[0]

    def count(self, candidates: Mapping[str, Sequence[Entry]]) -> int:
        """``len(self.matches(candidates))`` without building a match."""
        sums = self._survey(self._bind(candidates))[2]
        return sums[0][-1]


def enumerate_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> list[tuple[Entry, ...]]:
    """All matches assembled from ``candidates``, sorted by start labels.

    Args:
        pattern: the query pattern; output tuples follow ``pattern.tags()``
            (preorder) component order.
        candidates: per-tag candidate lists in document order.

    Returns:
        Matches sorted lexicographically by their tuple of start labels.
    """
    return MatchPlan(pattern).matches(candidates)


def count_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> int:
    """Number of matches without materializing them."""
    return MatchPlan(pattern).count(candidates)
