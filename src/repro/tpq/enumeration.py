"""Output enumeration: expand per-node candidate lists into full matches.

Given a pattern and, for every pattern node, the document-ordered
candidates as three **label columns** (``starts`` / ``ends`` / ``levels``,
int sequences aligned by candidate), a :class:`MatchPlan` ranks and
builds every embedding that can be assembled from the candidates;
:func:`enumerate_matches` is the same over lists of objects carrying
``start``/``end``/``level``.  Structural checks are done purely on region
labels:

* ad-edge: the child candidate's region nests inside the parent's;
* pc-edge: nesting plus ``child.level == parent.level + 1`` (region labels
  of ancestors have pairwise distinct levels, so this pins the parent).

The enumeration is **factorized**.  For every candidate of a node, the
matches of the pattern subtree rooted there are computed exactly once
and stored contiguously, in candidate order.  The candidates of a child
that fall inside a parent candidate's region form one index range of
the child's sorted pool (binary search), so the child's sub-matches
under that parent are one slice of the stored list, and a branching
node's matches are the product of its children's slices — built by list
comprehensions, never one interpreted step per (binding, sibling
sub-match) pair.

It is also **output-sensitive**: no sub-match — and no record — is built
before two walks over integers have run.  The first, children first,
does the binary searches and counts the sub-matches under every
candidate; the second,
parents first, drops the candidates that no match contains (no
sub-match below, or no surviving parent above) wherever they would
outweigh the output.  What is then expanded is at most (pattern size) x
(number of matches) sub-matches, so candidates a filter would have
dropped cost integer work, not tuples.

And it is **ranked**: the counts of the first walk number every match,
so an opened :class:`Enumeration` builds any range ``lo..hi`` of the
output on its own, in O(pattern size x (hi - lo)) — what lets a flush
be emitted in bounded slices, and a suspended one be carried as its
candidate pools plus one integer.

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

import gc
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Mapping, Sequence, TypeVar

from repro.errors import PatternError
from repro.tpq.pattern import Pattern

Entry = TypeVar("Entry")

_range_end = itemgetter(1)


def _labels(start: int, end: int, level: int) -> tuple[int, int, int]:
    return (start, end, level)


class MatchPlan:
    """A pattern's slot structure, compiled once and run per candidate set.

    Engines flush one candidate set per partition (hundreds per query on
    many-root documents), so everything that depends only on the pattern
    — preorder tags, each node's child slots and edge kinds, the visiting
    orders — is resolved here, not per flush.

    Args:
        pattern: the query pattern; slot ``i`` is its ``i``-th node in
            preorder.
        record: builds the output record of one candidate from its
            ``(start, end, level)``; entry-form matches are tuples of
            these.  Called once per candidate that occurs in a match.
    """

    __slots__ = (
        "tags", "record", "_pc", "_children", "_steps", "_edges",
        "_inner_edges",
    )

    def __init__(
        self,
        pattern: Pattern,
        record: Callable[[int, int, int], object] = _labels,
    ):
        nodes = pattern.nodes  # preorder: a node's slot is its index
        slot_of = {node.tag: slot for slot, node in enumerate(nodes)}
        self.tags: tuple[str, ...] = tuple(node.tag for node in nodes)
        self.record = record
        #: per slot: is the edge from the parent a pc-edge (never the root)
        self._pc = tuple(
            node.parent is not None and node.axis.is_pc for node in nodes
        )
        #: per slot: the child slots, in pattern order
        self._children = tuple(
            tuple(slot_of[child.tag] for child in node.children)
            for node in nodes
        )
        # (slot, child slots), in reverse preorder: children come first.
        self._steps = tuple(
            (slot, self._children[slot])
            for slot in range(len(nodes) - 1, -1, -1)
        )
        # (slot, child slot) for every edge, in preorder: parents come
        # first ...
        self._edges = tuple(
            (slot, child)
            for slot, children in reversed(self._steps)
            for child in children
        )
        # ... and for every child that has children itself.
        self._inner_edges = tuple(
            (slot, child)
            for slot, child in self._edges
            if self._children[child]
        )

    def _survey(self, starts, ends, levels):
        """``(admits, counts, sums)`` by slot: the walk that reads labels.

        ``admits[c][j]`` says which candidates of slot ``c`` candidate
        ``j`` of ``c``'s parent admits: on an ad-edge the index range
        ``(lo, hi)`` of the starts inside its region, on a pc-edge the
        list of indexes in that range at the right ``level``.
        ``counts[s][j]`` is the number of sub-matches rooted at candidate
        ``j`` of slot ``s``: the product, over child edges, of the summed
        counts of the admitted child candidates.  ``sums[s]`` are the
        prefix sums of ``counts[s]`` (what makes an ad-edge's sum one
        subtraction).  Children first, integers only.
        """
        admits: list = [None] * len(starts)
        counts: list = [None] * len(starts)
        sums: list = [None] * len(starts)
        for slot, children in self._steps:
            own_starts = starts[slot]
            own_ends = ends[slot]
            totals = [1] * len(own_starts)
            for child in children:
                child_starts = starts[child]
                pc = self._pc[child]
                if pc:
                    own_levels = levels[slot]
                    child_levels = levels[child]
                below = counts[child] if pc else sums[child]
                spans = admits[child] = []
                for j, (start, end) in enumerate(zip(own_starts, own_ends)):
                    lo = bisect_right(child_starts, start)
                    hi = bisect_left(child_starts, end, lo)
                    if pc:
                        want = own_levels[j] + 1
                        picks = [
                            k
                            for k in range(lo, hi)
                            if child_levels[k] == want
                        ]
                        spans.append(picks)
                        totals[j] *= sum([below[k] for k in picks])
                    else:
                        spans.append((lo, hi))
                        totals[j] *= below[hi] - below[lo]
            counts[slot] = totals
            sums[slot] = list(accumulate(totals, initial=0))
        return admits, counts, sums

    def _reach(self, admits, counts, live, child: int) -> list[int]:
        """``counts[child]`` with zeros at the candidates that no live
        candidate of the parent slot admits (``live``: by parent
        candidate, truthy where live)."""
        below = counts[child]
        reached = [0] * len(below)
        if self._pc[child]:
            for picks, alive in zip(admits[child], live):
                if alive:
                    for k in picks:
                        reached[k] = below[k]
        else:
            # Regions nest or are disjoint, and parents come by
            # ascending start: a range ending by `done` lies inside
            # one already copied.
            done = 0
            for (lo, hi), alive in zip(admits[child], live):
                if alive and hi > done:
                    reached[lo:hi] = below[lo:hi]
                    done = hi
        return reached

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
            live = self._reach(admits, counts, counts[slot], child)
            counts[child] = live
            sums[child] = list(accumulate(live, initial=0))

    def open(self, starts, ends, levels) -> "Enumeration":
        """Rank the matches of one candidate set without building one.

        ``starts`` / ``ends`` / ``levels`` hold, by slot, the candidates'
        label columns in document order.  Runs the two integer walks; the
        returned enumeration expands any rank range on demand
        (:meth:`Enumeration.take`).
        """
        admits, counts, sums = self._survey(starts, ends, levels)
        if sums[0][-1]:
            self._prune(admits, counts, sums)
        return Enumeration(self, starts, ends, levels, admits, counts, sums)

    def open_entries(
        self, candidates: Mapping[str, Sequence[Entry]]
    ) -> "Enumeration":
        """:meth:`open` over per-tag lists of objects carrying
        ``start``/``end``/``level``; entry-form matches are tuples of
        those very objects."""
        try:
            pools = [candidates[tag] for tag in self.tags]
        except KeyError:
            missing = [tag for tag in self.tags if tag not in candidates]
            raise PatternError(
                f"candidate lists missing for tags {missing}"
            ) from None
        opened = self.open(
            [[entry.start for entry in pool] for pool in pools],
            [[entry.end for entry in pool] for pool in pools],
            [[entry.level for entry in pool] for pool in pools],
        )
        opened._records = pools
        return opened

    def count(self, starts, ends, levels) -> int:
        """``open(...).total`` without the second walk."""
        return self._survey(starts, ends, levels)[2][0][-1]


class Enumeration:
    """One candidate set, surveyed and pruned: every match has a rank.

    The counts and prefix sums of :meth:`MatchPlan._survey` number the
    sub-matches of every slot in the canonical order — candidate by
    candidate in pool order, and under one candidate the product of its
    children's admitted sub-matches, first child outermost — so "the
    sub-matches ``a..b`` of slot ``s``" is a well-defined list and the
    matches are the root's.  :meth:`take` builds exactly such a range:

    * the candidates that lie wholly inside the range are expanded in
      bulk (:meth:`_whole`): each child's sub-matches are fetched once
      for the whole run of candidates and sliced per candidate, and the
      products are list comprehensions;
    * the one candidate at either end that the range cuts is unranked
      (:meth:`_rows`): its share is an interval of the mixed-radix
      numbers over its children's admitted counts, which splits into at
      most a partial first row, whole middle rows and a partial last row
      per child, and every piece recurses into a child with a sub-range.

    What one ``take`` builds is therefore O(pattern size x (hi - lo))
    tuples, wherever the bulk of the matches sits in the pattern.
    """

    __slots__ = (
        "plan", "total", "_starts", "_ends", "_levels", "_admits",
        "_counts", "_sums", "_records",
    )

    def __init__(
        self, plan: MatchPlan, starts, ends, levels, admits, counts, sums
    ):
        self.plan = plan
        #: number of matches
        self.total: int = sums[0][-1]
        self._starts = starts
        self._ends = ends
        self._levels = levels
        self._admits = admits
        self._counts = counts
        self._sums = sums
        #: by slot, the output record of each candidate: built by the
        #: first entry-form ``take``, for the candidates in a match only
        self._records: list | None = None

    def take(self, lo: int, hi: int, keys: bool = False) -> list[tuple]:
        """Matches ``lo..hi`` (clamped to ``0..total``) of the canonical
        order, strictly increasing in their tuple of starts.

        With ``keys`` a match is the tuple of its start labels: the
        expansion runs over the start columns and no record is built.
        Otherwise it is the tuple of its candidates' records, and the
        first such call builds them — one per candidate that occurs in a
        match, from the label columns, shared by every match and every
        later call.

        The cyclic collector is paused for the call and put back on the
        way out.  It is triggered by allocation count, not by garbage,
        and what is allocated here is one tuple per (sub-)match, of
        records or of ints, referenced only from the lists being built:
        acyclic by construction, so every pass it would start walks the
        batch (and, a full one, the caller's whole heap) to find
        nothing.  Reference counting frees exactly what it did before;
        a host that runs with the collector off is left alone.
        """
        lo = max(lo, 0)
        hi = min(hi, self.total)
        if lo >= hi:
            return []
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            if keys:
                return self._ranks(self._starts, 0, lo, hi)
            if self._records is None:
                self._records = self._build_records()
            return self._ranks(self._records, 0, lo, hi)
        finally:
            if paused:
                gc.enable()

    def _build_records(self) -> list[list]:
        """By slot, ``plan.record`` of every candidate that occurs in a
        match and None for the others (parents first: a candidate occurs
        in one iff it roots a sub-match and a candidate that does admits
        it)."""
        plan = self.plan
        record = plan.record
        live: list = [None] * len(self._counts)
        live[0] = self._counts[0]
        for slot, child in plan._edges:
            live[child] = plan._reach(
                self._admits, self._counts, live[slot], child
            )
        return [
            [
                record(start, end, level) if here else None
                for start, end, level, here
                in zip(starts, ends, levels, alive)
            ] if 0 in alive else list(map(record, starts, ends, levels))
            for starts, ends, levels, alive
            in zip(self._starts, self._ends, self._levels, live)
        ]

    def _ranks(self, cols, slot: int, a: int, b: int) -> list[tuple]:
        """Sub-matches ``a..b`` of ``slot`` (``a < b``, both in range)."""
        if not self.plan._children[slot]:
            # A leaf candidate roots one sub-match: ranks are indexes.
            return self._whole(cols, slot, a, b)
        cuts = self._sums[slot]
        p = bisect_right(cuts, a) - 1  # cuts[p] <= a < cuts[p + 1]
        q = bisect_left(cuts, b) - 1   # cuts[q] < b <= cuts[q + 1]
        if p == q and (cuts[p] < a or b < cuts[q + 1]):
            return self._rows(cols, slot, p, a - cuts[p], b - cuts[p])
        out: list[tuple] = []
        if cuts[p] < a:
            out = self._rows(
                cols, slot, p, a - cuts[p], cuts[p + 1] - cuts[p]
            )
            p += 1
        cut = b < cuts[q + 1]
        out += self._whole(cols, slot, p, q if cut else q + 1)
        if cut:
            out += self._rows(cols, slot, q, 0, b - cuts[q])
        return out

    def _picked(self, child: int, p: int, q: int) -> tuple[int, int]:
        """The index range of pc-edge ``child`` from the first to the
        last pick of candidates ``p..q`` of its parent slot."""
        chosen = [picks for picks in self._admits[child][p:q] if picks]
        if not chosen:
            return 0, 0
        return (
            min([picks[0] for picks in chosen]),
            max([picks[-1] for picks in chosen]) + 1,
        )

    def _whole(self, cols, slot: int, p: int, q: int) -> list[tuple]:
        """Every sub-match of candidates ``p..q`` of ``slot``."""
        col = cols[slot]
        kids = self.plan._children
        if not kids[slot]:
            return [(value,) for value in col[p:q]]
        sums = self._sums
        size = sums[slot][q] - sums[slot][p]
        if not size:
            return []
        # Fetch each child's sub-matches once, over the hull of what the
        # candidates admit.  The hull is their union unless it spans
        # sub-matches that no candidate of this run admits (dead ones of
        # an unpruned slot, a straggler between two nested candidates of
        # a recursive tag, the other levels between a pc-edge's picks).
        # What the run admits numbers at most `size`; a hull within that
        # keeps every slot's share of a `take` within the range asked
        # for, and a wider one is cut down by halving the run.
        pc = self.plan._pc
        fetched = []
        for child in kids[slot]:
            spans = self._admits[child]
            if pc[child]:
                lo, hi = self._picked(child, p, q)
            elif q - p == 1:
                lo, hi = spans[p]
            else:
                # Regions nest or are disjoint and parents come by
                # ascending start: the first range starts first.
                lo = spans[p][0]
                hi = max(spans[p:q], key=_range_end)[1]
            cuts = sums[child]
            if cuts[hi] - cuts[lo] > size:
                if q - p == 1:
                    # A pc-edge whose picks are sparse among heavier
                    # candidates at other levels: pick by pick.
                    return self._rows(cols, slot, p, 0, size)
                mid = (p + q) // 2
                return (
                    self._whole(cols, slot, p, mid)
                    + self._whole(cols, slot, mid, q)
                )
            fetched.append(
                (child, spans, cuts, cuts[lo],
                 self._whole(cols, child, lo, hi))
            )
        alive = self._counts[slot]
        out: list[tuple] = []
        for j in range(p, q):
            if alive[j]:
                head = (col[j],)
                partial = None
                for child, spans, cuts, base, found in fetched:
                    picks = spans[j]
                    if pc[child]:
                        below = [
                            match
                            for k in picks
                            for match in found[cuts[k] - base:
                                               cuts[k + 1] - base]
                        ]
                    else:
                        below = found[cuts[picks[0]] - base:
                                      cuts[picks[1]] - base]
                    if partial is None:
                        partial = [head + match for match in below]
                    else:
                        partial = [
                            prefix + match
                            for prefix in partial
                            for match in below
                        ]
                out += partial
        return out

    def _rows(self, cols, slot: int, j: int, x: int, y: int) -> list[tuple]:
        """Sub-matches ``x..y`` of candidate ``j`` of ``slot``, numbered
        within the candidate."""
        children = self.plan._children[slot]
        # widths[i]: the rows that share one sub-match of children[i],
        # i.e. the product of the later children's admitted counts.
        widths = [1] * len(children)
        for i in range(len(children) - 1, 0, -1):
            widths[i - 1] = widths[i] * self._admitted(children[i], j)
        return self._product(
            cols, j, (cols[slot][j],), children, widths, 0, x, y
        )

    def _product(
        self, cols, j: int, prefix: tuple, children, widths, i: int,
        x: int, y: int,
    ) -> list[tuple]:
        """Rows ``x..y`` of ``prefix`` x ``children[i]`` x ``children[i +
        1]`` x ... under candidate ``j`` of the children's parent slot
        (first child outermost, ``x < y``)."""
        child = children[i]
        if i == len(children) - 1:
            return [
                prefix + match
                for match in self._under(cols, child, j, x, y)
            ]
        width = widths[i]
        first, skip = divmod(x, width)
        last, stop = divmod(y, width)
        if first == last:
            (match,) = self._under(cols, child, j, first, first + 1)
            return self._product(
                cols, j, prefix + match, children, widths, i + 1, skip, stop
            )
        out: list[tuple] = []
        if skip:
            (match,) = self._under(cols, child, j, first, first + 1)
            out = self._product(
                cols, j, prefix + match, children, widths, i + 1, skip, width
            )
            first += 1
        if first < last:
            # Whole rows: (last - first) * width of them lie in x..y, so
            # the shared tail is no longer than the range asked for.
            tail = self._product(
                cols, j, (), children, widths, i + 1, 0, width
            )
            heads = [
                prefix + match
                for match in self._under(cols, child, j, first, last)
            ]
            out += [head + rest for head in heads for rest in tail]
        if stop:
            (match,) = self._under(cols, child, j, last, last + 1)
            out += self._product(
                cols, j, prefix + match, children, widths, i + 1, 0, stop
            )
        return out

    def _admitted(self, child: int, j: int) -> int:
        """How many sub-matches of ``child`` candidate ``j`` of its
        parent slot admits."""
        picks = self._admits[child][j]
        cuts = self._sums[child]
        if not self.plan._pc[child]:
            return cuts[picks[1]] - cuts[picks[0]]
        return sum([cuts[k + 1] - cuts[k] for k in picks])

    def _under(self, cols, child: int, j: int, u: int, v: int) -> list[tuple]:
        """Sub-matches ``u..v`` of ``child`` among those candidate ``j``
        of its parent slot admits (``u < v``)."""
        picks = self._admits[child][j]
        cuts = self._sums[child]
        if not self.plan._pc[child]:
            base = cuts[picks[0]]
            return self._ranks(cols, child, base + u, base + v)
        out: list[tuple] = []
        seen = 0  # admitted sub-matches before pick k
        for k in picks:
            if seen >= v:
                break
            width = cuts[k + 1] - cuts[k]
            if width and seen + width > u:
                out += self._ranks(
                    cols, child,
                    cuts[k] + max(u - seen, 0),
                    cuts[k] + min(v - seen, width),
                )
            seen += width
        return out


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
    opened = MatchPlan(pattern).open_entries(candidates)
    return opened.take(0, opened.total)


def count_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> int:
    """Number of matches without materializing them."""
    return MatchPlan(pattern).open_entries(candidates).total
