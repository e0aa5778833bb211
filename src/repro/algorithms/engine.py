"""Engine dispatcher: one entry point for every algorithm × scheme combo.

Validates the combination against paper Table I, materializes the views in
the requested scheme (idempotently, through the catalog), wires up the
per-tag sources, runs the algorithm and attaches I/O statistics gathered
from the catalog's pager (and the spill pager for disk-based runs).
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.algorithms.access import build_sources
from repro.algorithms.base import EvalResult, Mode
from repro.algorithms.interjoin import interjoin
from repro.algorithms.pathstack import pathstack
from repro.algorithms.preempt import PlanState, QuantumBudget
from repro.algorithms.twigstack import twigstack
from repro.algorithms.viewjoin import viewjoin, viewjoin_quantum
from repro.errors import EvaluationError
from repro.storage.catalog import Scheme, ViewCatalog
from repro.storage.pager import IOStats, Pager
from repro.tpq.pattern import Pattern


class Algorithm(enum.Enum):
    """The evaluation algorithms of paper Table I (plus PathStack)."""

    INTERJOIN = "IJ"
    TWIGSTACK = "TS"
    PATHSTACK = "PS"
    VIEWJOIN = "VJ"

    @classmethod
    def parse(cls, value: "Algorithm | str") -> "Algorithm":
        if isinstance(value, Algorithm):
            return value
        normalized = value.strip().lower()
        aliases = {
            "ij": cls.INTERJOIN, "interjoin": cls.INTERJOIN,
            "ts": cls.TWIGSTACK, "twigstack": cls.TWIGSTACK,
            "ps": cls.PATHSTACK, "pathstack": cls.PATHSTACK,
            "vj": cls.VIEWJOIN, "viewjoin": cls.VIEWJOIN,
        }
        try:
            return aliases[normalized]
        except KeyError:
            raise EvaluationError(f"unknown algorithm {value!r}") from None


_VALID_COMBOS = {
    Algorithm.INTERJOIN: {Scheme.TUPLE},
    Algorithm.TWIGSTACK: {Scheme.ELEMENT, Scheme.LINKED, Scheme.LINKED_PARTIAL},
    Algorithm.PATHSTACK: {Scheme.ELEMENT, Scheme.LINKED, Scheme.LINKED_PARTIAL},
    Algorithm.VIEWJOIN: {Scheme.ELEMENT, Scheme.LINKED, Scheme.LINKED_PARTIAL},
}


def evaluate(
    query: Pattern,
    catalog: ViewCatalog,
    views: Sequence[Pattern],
    algorithm: Algorithm | str,
    scheme: Scheme | str,
    mode: Mode | str = Mode.MEMORY,
    emit_matches: bool | str = True,
    use_index: bool = False,
    strict_pc: bool = False,
    sink=None,
    as_of: int | None = None,
) -> EvalResult:
    """Evaluate ``query`` over materialized ``views`` from ``catalog``.

    Args:
        query: the tree pattern query.
        catalog: view catalog over the target document (views are
            materialized on demand and cached).
        views: the covering view patterns to use.
        algorithm: IJ / TS / PS / VJ (or full names).
        scheme: T / E / LE / LEp — must be valid for the algorithm.
        mode: memory- or disk-based output approach.
        emit_matches: the output form — True materializes entry tuples,
            False counts only, :data:`~repro.algorithms.base.KEYS` has
            TS/PS/VJ emit each match as its tuple of start labels
            (``result.keys`` is then set; IJ ignores it and emits entries).
        use_index: attach B+-tree indexes to the per-tag lists (TS/VJ).
        strict_pc: TwigStack only — level-exact pc-edge admission.
        sink: TS/VJ only — stream the matches to this callback, one
            batch per flush, instead of accumulating them in the result.
        as_of: MVCC pin (DESIGN.md §16) — require ``catalog`` to hold
            exactly this store generation; a mismatch raises typed
            instead of silently answering from a different snapshot.

    Returns:
        The evaluation result with matches, work counters and I/O stats.

    Raises:
        EvaluationError: on a combination outside paper Table I, or when
            ``as_of`` names a generation the catalog does not hold.
    """
    algorithm = Algorithm.parse(algorithm)
    scheme = Scheme.parse(scheme)
    mode = Mode.parse(mode)
    if scheme not in _VALID_COMBOS[algorithm]:
        raise EvaluationError(
            f"{algorithm.value}+{scheme.value} is not a supported combination"
            " (paper Table I)"
        )
    _check_as_of(catalog, as_of)

    view_patterns = list(views)
    materialized = [
        catalog.add(pattern, scheme).view for pattern in view_patterns
    ]
    catalog.pager.reset_stats()

    spill_pager: Pager | None = None
    try:
        if mode is Mode.DISK and algorithm is not Algorithm.INTERJOIN:
            spill_pager = Pager(file_backed=True)
        if algorithm is Algorithm.INTERJOIN:
            result = interjoin(
                query, materialized, mode=mode, emit_matches=emit_matches
            )
        else:
            sources = build_sources(
                query, materialized, view_patterns, use_index=use_index
            )
            if algorithm is Algorithm.TWIGSTACK:
                result = twigstack(
                    query, sources, mode=mode,
                    emit_matches=emit_matches, spill_pager=spill_pager,
                    strict_pc=strict_pc, sink=sink,
                )
            elif algorithm is Algorithm.PATHSTACK:
                result = pathstack(
                    query, sources, mode=mode,
                    emit_matches=emit_matches, spill_pager=spill_pager,
                )
            else:
                result = viewjoin(
                    query, sources, view_patterns, mode=mode,
                    emit_matches=emit_matches, spill_pager=spill_pager,
                    sink=sink,
                )
        io = IOStats()
        io.merge(catalog.pager.total_stats())
        if spill_pager is not None:
            io.merge(spill_pager.total_stats())
        result.io = io
        return result
    finally:
        if spill_pager is not None:
            spill_pager.close()


def _check_as_of(catalog: ViewCatalog, as_of: int | None) -> None:
    """The end of the `as_of` thread (planner → job → worker → here):
    the executing catalog must hold exactly the pinned generation."""
    if as_of is None:
        return
    held = getattr(catalog, "generation", as_of)
    if held != as_of:
        raise EvaluationError(
            f"catalog holds store generation {held}, but the evaluation"
            f" is pinned as_of generation {as_of}"
        )


def evaluate_quantum(
    query: Pattern,
    catalog: ViewCatalog,
    views: Sequence[Pattern],
    algorithm: Algorithm | str,
    scheme: Scheme | str,
    mode: Mode | str = Mode.MEMORY,
    emit_matches: bool | str = True,
    budget: QuantumBudget | None = None,
    state: PlanState | None = None,
    use_index: bool = False,
    as_of: int | None = None,
) -> tuple[EvalResult, PlanState | None]:
    """Run one quantum of a preemptible evaluation (ViewJoin only).

    Mirrors :func:`evaluate`'s materialization and I/O accounting, but
    bounds the run to ``budget`` and starts from ``state`` when resuming.
    Returns ``(result, next_state)``; ``next_state`` is None when done.
    The result's ``io`` covers **this quantum only** (cursor
    reconstruction on resume touches pages, so per-quantum I/O is the
    meaningful unit; callers accumulate across quanta) while ``counters``
    and ``match_count`` are cumulative and — on the final quantum —
    byte-identical to an uninterrupted :func:`evaluate` run.

    Raises:
        EvaluationError: for a non-ViewJoin algorithm or a combination
            outside paper Table I — preemption is a ViewJoin capability
            (the other engines exist as baselines).
    """
    algorithm = Algorithm.parse(algorithm)
    scheme = Scheme.parse(scheme)
    mode = Mode.parse(mode)
    if algorithm is not Algorithm.VIEWJOIN:
        raise EvaluationError(
            f"preemptible evaluation requires ViewJoin, not"
            f" {algorithm.value}"
        )
    if scheme not in _VALID_COMBOS[algorithm]:
        raise EvaluationError(
            f"{algorithm.value}+{scheme.value} is not a supported combination"
            " (paper Table I)"
        )
    _check_as_of(catalog, as_of)
    view_patterns = list(views)
    materialized = [
        catalog.add(pattern, scheme).view for pattern in view_patterns
    ]
    catalog.pager.reset_stats()
    spill_pager: Pager | None = None
    try:
        if mode is Mode.DISK:
            spill_pager = Pager(file_backed=True)
        sources = build_sources(
            query, materialized, view_patterns, use_index=use_index
        )
        result, next_state = viewjoin_quantum(
            query, sources, view_patterns, mode=mode,
            emit_matches=emit_matches, spill_pager=spill_pager,
            budget=budget, state=state,
        )
        io = IOStats()
        io.merge(catalog.pager.total_stats())
        if spill_pager is not None:
            io.merge(spill_pager.total_stats())
        result.io = io
        return result, next_state
    finally:
        if spill_pager is not None:
            spill_pager.close()


def combo_label(algorithm: Algorithm | str, scheme: Scheme | str) -> str:
    """Human-readable combo name, e.g. ``"VJ+LEp"``."""
    return f"{Algorithm.parse(algorithm).value}+{Scheme.parse(scheme).value}"
