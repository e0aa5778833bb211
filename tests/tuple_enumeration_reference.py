"""The retired tuple-building expansion of ``Enumeration.take``, kept
as a differential reference.

Until the enumerator built columns, ``take`` expanded a rank range into
one tuple per match — of start labels, or of one record per candidate —
by list comprehensions over the same survey (``MatchPlan._survey`` and
``_prune``, which this code shares with ``src/``).  It left ``src/``
because columns replaced it at every call site; it stays here so
``tests/test_enumeration.py`` can hold the columnar expansion to it on
every rank range.  The one change: the collector pause it used to wrap
itself in is gone (it never changed an answer).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from repro.tpq.enumeration import MatchPlan

_range_end = itemgetter(1)


def _labels(start: int, end: int, level: int) -> tuple[int, int, int]:
    return (start, end, level)


class TupleEnumeration:
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
        "plan", "record", "total", "_starts", "_ends", "_levels",
        "_admits", "_counts", "_sums", "_records",
    )

    def __init__(
        self, plan: MatchPlan, starts, ends, levels, record=_labels
    ):
        admits, counts, sums = plan._survey(starts, ends, levels)
        if sums[0][-1]:
            plan._prune(admits, counts, sums)
        self.plan = plan
        self.record = record
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
        """Matches ``lo..hi`` (clamped) as tuples: of start labels with
        ``keys``, else of ``record(start, end, level)`` per candidate."""
        lo = max(lo, 0)
        hi = min(hi, self.total)
        if lo >= hi:
            return []
        if keys:
            return self._ranks(self._starts, 0, lo, hi)
        if self._records is None:
            self._records = self._build_records()
        return self._ranks(self._records, 0, lo, hi)

    def _build_records(self) -> list[list]:
        """By slot, ``plan.record`` of every candidate that occurs in a
        match and None for the others (parents first: a candidate occurs
        in one iff it roots a sub-match and a candidate that does admits
        it)."""
        plan = self.plan
        record = self.record
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
