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

The output is **columnar**: matches ``lo..hi`` are one list per pattern
node (slot ``i`` is the ``i``-th node in preorder), row ``r`` of every
column together being one match.  A column holds one object per
candidate, shared by every row that holds it: by default the
candidate's start label, or what the caller gives per candidate (an
output record, built once per candidate: :meth:`Enumeration.records`).
No tuple is built per match; a caller that promises tuples zips the
columns at its own boundary, and the tuples share those objects too.

The enumeration is **factorized**.  For every candidate of a node, the
matches of the pattern subtree rooted there are computed exactly once
and stored contiguously, in candidate order.  The candidates of a child
that fall inside a parent candidate's region form one index range of
the child's sorted pool (binary search), so the child's sub-matches
under that parent are one slice of the stored columns, and a branching
node's matches are the product of its children's slices.  A product of
``n`` rows by ``m`` rows repeats each of the left columns' values ``m``
times and tiles the right columns ``n`` times (``column * n``): C-level
copies, so the interpreter runs per candidate, never per (binding,
sibling sub-match) pair.

It is also **output-sensitive**: no sub-match is built before two walks
over integers have run.  The first, children first, does the binary
searches and counts the sub-matches under every candidate; the second,
parents first, drops the candidates that no match contains (no
sub-match below, or no surviving parent above) wherever they would
outweigh the output.  What is then expanded is at most (pattern size) x
(number of matches) labels, so candidates a filter would have dropped
cost integer work, not columns.

And it is **ranked**: the counts of the first walk number every match,
so an opened :class:`Enumeration` builds any range ``lo..hi`` of the
output on its own, in O(pattern size x (hi - lo)) — what lets a flush
be emitted in bounded slices, and a suspended one be carried as its
candidate pools plus one integer.

The order needs no sort.  A subtree owns a contiguous run of slots and a
match is the parent's start followed by its children's sub-matches in
child order.  Pools are in document order, hence (by induction from the
leaves) every stored sub-match block is strictly increasing in its rows
of start labels, and the product — first child outermost — is again
strictly increasing.

It is shared by the tuple-scheme materializer and by every algorithm's
final "output matches" phase, which guarantees all engines emit
byte-identical results whenever their filtered candidate sets agree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate, chain, compress, repeat
from operator import iadd, itemgetter, mul
from typing import Mapping, Sequence, TypeVar

from repro.errors import PatternError
from repro.tpq.pattern import Pattern

Entry = TypeVar("Entry")

#: A column of matches: one object per row, the candidates' own (every
#: row that holds a candidate shares its object).
Column = list

_range_end = itemgetter(1)


class MatchPlan:
    """A pattern's slot structure, compiled once and run per candidate set.

    Engines flush one candidate set per partition (hundreds per query on
    many-root documents), so everything that depends only on the pattern
    — preorder tags, each node's child slots and edge kinds, the visiting
    orders — is resolved here, not per flush.

    Args:
        pattern: the query pattern; slot ``i`` is its ``i``-th node in
            preorder.
    """

    __slots__ = (
        "tags", "_pc", "_children", "_width", "_steps", "_edges",
        "_inner_edges",
    )

    def __init__(self, pattern: Pattern):
        nodes = pattern.nodes  # preorder: a node's slot is its index
        slot_of = {node.tag: slot for slot, node in enumerate(nodes)}
        self.tags: tuple[str, ...] = tuple(node.tag for node in nodes)
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
        #: per slot: the slots of its subtree (a contiguous preorder run)
        width = [1] * len(nodes)
        for slot, children in self._steps:
            width[slot] += sum([width[child] for child in children])
        self._width = tuple(width)
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
        and so are the leaf slots: a leaf candidate costs one label.
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

    def pools(self, candidates: Mapping[str, Sequence[Entry]]) -> list:
        """By slot, the candidate list of its tag."""
        try:
            return [candidates[tag] for tag in self.tags]
        except KeyError:
            missing = [tag for tag in self.tags if tag not in candidates]
            raise PatternError(
                f"candidate lists missing for tags {missing}"
            ) from None

    def open_entries(
        self, candidates: Mapping[str, Sequence[Entry]]
    ) -> "Enumeration":
        """:meth:`open` over per-tag lists of objects carrying
        ``start``/``end``/``level``."""
        pools = self.pools(candidates)
        return self.open(
            [[entry.start for entry in pool] for pool in pools],
            [[entry.end for entry in pool] for pool in pools],
            [[entry.level for entry in pool] for pool in pools],
        )

    def count(self, starts, ends, levels) -> int:
        """``open(...).total`` without the second walk."""
        return self._survey(starts, ends, levels)[2][0][-1]

    def empty(self) -> list[Column]:
        """No match, as columns."""
        return [[] for _ in self.tags]


def _stretch(column: Column, times: int) -> Column:
    """``column`` with each value repeated ``times`` times in a row: one
    strided assignment per repetition while they are the fewer, else one
    C-level pass over the repeats."""
    if times == 1:
        return column
    size = len(column)
    if size == 1:
        return column * times
    if times > size:
        return list(chain.from_iterable(
            map(repeat, column, repeat(times, size))
        ))
    out = column * times  # the right size; every item is overwritten
    for offset in range(times):
        out[offset::times] = column
    return out


def _cross(left: list[Column], right: list[Column]) -> list[Column]:
    """Every row of ``left`` followed by every row of ``right``, left
    outermost: the columns of both, side by side (``left`` may have no
    column: one empty row)."""
    if not left:
        return right
    rows, times = len(left[0]), len(right[0])
    return [_stretch(column, times) for column in left] + (
        right if rows == 1 else [column * rows for column in right]
    )


def _stacked(blocks: list[list[Column]]) -> list[Column]:
    """The rows of ``blocks``, one after the other (at least one block)."""
    if len(blocks) == 1:
        return blocks[0]
    out: list[Column] = [[] for _ in blocks[0]]
    for block in blocks:
        for column, part in zip(out, block):
            column += part
    return out


def _ranges(column: Column, firsts, lasts) -> Column:
    """The items ``firsts[i]..lasts[i]`` of ``column``, range after range:
    one C-level loop of slice-and-extend."""
    return reduce(
        iadd, map(column.__getitem__, map(slice, firsts, lasts)), []
    )


def _repeated(column: Column, firsts, lasts, times) -> Column:
    """Range ``firsts[i]..lasts[i]`` of ``column`` tiled ``times[i]``
    times, range after range: one C-level loop of slice, repeat and
    extend."""
    return reduce(iadd, map(
        mul, map(column.__getitem__, map(slice, firsts, lasts)), times
    ), [])


def _rows_of(block: list[Column], firsts: list, lasts: list) -> list[Column]:
    """The rows ``firsts[i]..lasts[i]`` of ``block``, range after range:
    ``block`` itself when the ranges tile it."""
    if (
        firsts[0] == 0 and lasts[-1] == len(block[0])
        and firsts[1:] == lasts[:-1]
    ):
        return block
    rows = list(chain.from_iterable(map(range, firsts, lasts)))
    return [list(map(column.__getitem__, rows)) for column in block]


class Enumeration:
    """One candidate set, surveyed and pruned: every match has a rank.

    The counts and prefix sums of :meth:`MatchPlan._survey` number the
    sub-matches of every slot in the canonical order — candidate by
    candidate in pool order, and under one candidate the product of its
    children's admitted sub-matches, first child outermost — so "the
    sub-matches ``a..b`` of slot ``s``" is a well-defined block of rows
    and the matches are the root's.  :meth:`take` builds exactly such a
    range, as one column per slot of the subtree:

    * the candidates that lie wholly inside the range are expanded in
      bulk (:meth:`_whole`): each child's sub-matches are fetched once
      for the whole run of candidates, and the run is C-level repeats
      and gathers (:meth:`_bulk`) or, with two children fanning out or
      a single live candidate, a product per candidate;
    * the one candidate at either end that the range cuts is unranked
      (:meth:`_rows`): its share is an interval of the mixed-radix
      numbers over its children's admitted counts, which splits into at
      most a partial first row, whole middle rows and a partial last row
      per child, and every piece recurses into a child with a sub-range.

    What one ``take`` builds is therefore O(pattern size x (hi - lo))
    labels, wherever the bulk of the matches sits in the pattern.
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
        self._starts = [
            column if type(column) is list else list(column)
            for column in starts
        ]
        self._ends = ends
        self._levels = levels
        self._admits = admits
        self._counts = counts
        self._sums = sums
        self._records: list | None = None

    def take(self, lo: int, hi: int, values=None) -> list[Column]:
        """Matches ``lo..hi`` (clamped to ``0..total``) of the canonical
        order, by slot: row ``r`` of the columns is match ``lo + r``,
        strictly increasing in ``r`` by its start labels.

        ``values`` holds, by slot, one object per candidate (pool order);
        a match's row holds its candidates' values.  By default it is
        their start labels, so a row is the match's tuple of starts.

        The columns are fresh lists, owned by the caller, of the
        candidates' own objects: a ``take`` allocates a few objects the
        cyclic collector tracks per candidate at most, never one per
        match, so it starts no collection however many matches it
        builds.
        """
        lo = max(lo, 0)
        hi = min(hi, self.total)
        if lo >= hi:
            return self.plan.empty()
        return self._ranks(self._starts if values is None else values,
                           0, lo, hi)

    def records(self, record) -> list[list]:
        """By slot, ``record(start, end, level)`` of every candidate that
        occurs in a match and None for the others — the ``values`` of an
        entry-form :meth:`take` — built on the first call and kept, so
        every slice of this enumeration shares them.

        Parents first: a candidate occurs in one iff it roots a
        sub-match and a candidate that does admits it."""
        if self._records is not None:
            return self._records
        plan = self.plan
        live: list = [None] * len(self._counts)
        live[0] = self._counts[0]
        for slot, child in plan._edges:
            live[child] = plan._reach(
                self._admits, self._counts, live[slot], child
            )
        self._records = [
            [
                record(start, end, level) if here else None
                for start, end, level, here
                in zip(starts, ends, levels, alive)
            ] if 0 in alive else list(map(record, starts, ends, levels))
            for starts, ends, levels, alive
            in zip(self._starts, self._ends, self._levels, live)
        ]
        return self._records

    def _ranks(self, cols, slot: int, a: int, b: int) -> list[Column]:
        """Sub-matches ``a..b`` of ``slot`` (``a < b``, both in range),
        over the per-candidate values ``cols``."""
        if not self.plan._children[slot]:
            # A leaf candidate roots one sub-match: ranks are indexes.
            return self._whole(cols, slot, a, b)
        cuts = self._sums[slot]
        p = bisect_right(cuts, a) - 1  # cuts[p] <= a < cuts[p + 1]
        q = bisect_left(cuts, b) - 1   # cuts[q] < b <= cuts[q + 1]
        if p == q and (cuts[p] < a or b < cuts[q + 1]):
            return self._rows(cols, slot, p, a - cuts[p], b - cuts[p])
        blocks = []
        if cuts[p] < a:
            blocks.append(self._rows(
                cols, slot, p, a - cuts[p], cuts[p + 1] - cuts[p]
            ))
            p += 1
        cut = b < cuts[q + 1]
        blocks.append(self._whole(cols, slot, p, q if cut else q + 1))
        if cut:
            blocks.append(self._rows(cols, slot, q, 0, b - cuts[q]))
        return _stacked(blocks)

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

    def _whole(self, cols, slot: int, p: int, q: int) -> list[Column]:
        """Every sub-match of candidates ``p..q`` of ``slot``."""
        col = cols[slot]
        kids = self.plan._children[slot]
        if not kids:
            return [col[p:q]]
        sums = self._sums
        if sums[slot][q] == sums[slot][p]:
            return [[] for _ in range(self.plan._width[slot])]
        size = sums[slot][q] - sums[slot][p]
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
        for child in kids:
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
                return _stacked([
                    self._whole(cols, slot, p, mid),
                    self._whole(cols, slot, mid, q),
                ])
            fetched.append((
                child, spans, cuts, cuts[lo],
                self._whole(cols, child, lo, hi),
            ))
        alive = self._counts[slot]
        bulk = self._bulk(col, alive, p, q, fetched)
        if bulk is not None:
            return bulk
        blocks = []
        for j in range(p, q):
            if alive[j]:
                block: list[Column] = []
                for child, spans, cuts, base, found in fetched:
                    picks = spans[j]
                    if pc[child]:
                        below = [
                            _ranges(
                                column,
                                [cuts[k] - base for k in picks],
                                [cuts[k + 1] - base for k in picks],
                            )
                            for column in found
                        ]
                    else:
                        first = cuts[picks[0]] - base
                        last = cuts[picks[1]] - base
                        below = [column[first:last] for column in found]
                    block = _cross(block, below)
                # The head last: one row, it is only ever tiled.
                blocks.append(_cross([col[j:j + 1]], block))
        return _stacked(blocks)

    def _bulk(self, col, alive, p: int, q: int, fetched):
        """:meth:`_whole` in bulk when no live candidate of the run needs
        a product: every child but (at most) one contributes exactly one
        sub-match to each.  A candidate's rows are then its start
        repeated, the other child's admitted rows, and each one-row
        child's row repeated as often, so the whole run is C-level loops
        of slice, repeat and extend, and the interpreter runs per
        candidate only to list the row ranges.  None when two children
        fan out, or for a single live candidate: the run is then crossed
        candidate by candidate."""
        live = alive[p:q]
        weights = [count for count in live if count]  # rows per candidate
        if len(weights) == 1:
            return None  # nothing to do in bulk: crossed directly
        children = []
        fanned = False
        for child, spans, cuts, base, found in fetched:
            # The admitted rows as two int lists: no tuple per candidate.
            if self.plan._pc[child]:
                picked = [
                    k for picks in compress(spans[p:q], live) for k in picks
                    if cuts[k + 1] > cuts[k]
                ]
                firsts = [cuts[k] - base for k in picked]
                lasts = [cuts[k + 1] - base for k in picked]
            else:
                admitted = list(compress(spans[p:q], live))
                firsts = [cuts[lo] - base for lo, __ in admitted]
                lasts = [cuts[hi] - base for __, hi in admitted]
            single = (
                len(firsts) == len(weights)
                and sum(lasts) - sum(firsts) == len(weights)
            )
            if not single:
                if fanned:
                    return None
                fanned = True
            children.append((firsts, lasts, found, single))
        block = [list(chain.from_iterable(map(repeat, col[p:q], live)))]
        for firsts, lasts, found, single in children:
            if fanned and single:  # its one row, over the fan's rows
                block += [
                    _repeated(column, firsts, lasts, weights)
                    for column in found
                ]
            else:
                block += _rows_of(found, firsts, lasts)
        return block

    def _rows(
        self, cols, slot: int, j: int, x: int, y: int
    ) -> list[Column]:
        """Sub-matches ``x..y`` of candidate ``j`` of ``slot``, numbered
        within the candidate."""
        children = self.plan._children[slot]
        # widths[i]: the rows that share one sub-match of children[i],
        # i.e. the product of the later children's admitted counts.
        widths = [1] * len(children)
        for i in range(len(children) - 1, 0, -1):
            widths[i - 1] = widths[i] * self._admitted(children[i], j)
        return self._product(
            cols, j, [cols[slot][j:j + 1]], children, widths, 0, x, y
        )

    def _product(
        self, cols, j: int, prefix: list[Column], children, widths,
        i: int, x: int, y: int,
    ) -> list[Column]:
        """Rows ``x..y`` of ``prefix`` x ``children[i]`` x ``children[i +
        1]`` x ... under candidate ``j`` of the children's parent slot
        (first child outermost, ``x < y``; ``prefix`` is one row, or no
        column at all)."""
        child = children[i]
        if i == len(children) - 1:
            return _cross(prefix, self._under(cols, child, j, x, y))
        width = widths[i]
        first, skip = divmod(x, width)
        last, stop = divmod(y, width)
        if first == last:
            match = self._under(cols, child, j, first, first + 1)
            return self._product(
                cols, j, _cross(prefix, match), children, widths, i + 1,
                skip, stop,
            )
        blocks = []
        if skip:
            match = self._under(cols, child, j, first, first + 1)
            blocks.append(self._product(
                cols, j, _cross(prefix, match), children, widths, i + 1,
                skip, width,
            ))
            first += 1
        if first < last:
            # Whole rows: (last - first) * width of them lie in x..y, so
            # the shared tail is no longer than the range asked for.
            tail = self._product(
                cols, j, [], children, widths, i + 1, 0, width
            )
            heads = _cross(
                prefix, self._under(cols, child, j, first, last)
            )
            blocks.append(_cross(heads, tail))
        if stop:
            match = self._under(cols, child, j, last, last + 1)
            blocks.append(self._product(
                cols, j, _cross(prefix, match), children, widths, i + 1,
                0, stop,
            ))
        return _stacked(blocks)

    def _admitted(self, child: int, j: int) -> int:
        """How many sub-matches of ``child`` candidate ``j`` of its
        parent slot admits."""
        picks = self._admits[child][j]
        cuts = self._sums[child]
        if not self.plan._pc[child]:
            return cuts[picks[1]] - cuts[picks[0]]
        return sum([cuts[k + 1] - cuts[k] for k in picks])

    def _under(
        self, cols, child: int, j: int, u: int, v: int
    ) -> list[Column]:
        """Sub-matches ``u..v`` of ``child`` among those candidate ``j``
        of its parent slot admits (``u < v``)."""
        picks = self._admits[child][j]
        cuts = self._sums[child]
        if not self.plan._pc[child]:
            base = cuts[picks[0]]
            return self._ranks(cols, child, base + u, base + v)
        blocks = []
        seen = 0  # admitted sub-matches before pick k
        for k in picks:
            if seen >= v:
                break
            width = cuts[k + 1] - cuts[k]
            if width and seen + width > u:
                blocks.append(self._ranks(
                    cols, child,
                    cuts[k] + max(u - seen, 0),
                    cuts[k] + min(v - seen, width),
                ))
            seen += width
        return _stacked(blocks)


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
        Matches sorted lexicographically by their tuple of start labels,
        each a tuple of the candidate objects themselves.
    """
    plan = MatchPlan(pattern)
    opened = plan.open_entries(candidates)
    pools = [list(pool) for pool in plan.pools(candidates)]
    return list(zip(*opened.take(0, opened.total, pools)))


def count_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> int:
    """Number of matches without materializing them."""
    return MatchPlan(pattern).open_entries(candidates).total
