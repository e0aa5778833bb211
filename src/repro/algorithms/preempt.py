"""Preemptible evaluation: quantum budgets and resumable plan state.

A ViewJoin run can be bounded to a **quantum** — a slice of work measured
in driver steps (`get_next` iterations), wall seconds, or emitted matches
(:class:`QuantumBudget`).  When the budget is exhausted the run suspends
at the top of its driver loop, a consistent point where the whole
position is a handful of integers:

* one entry index per retained-tag cursor (view cursors);
* the cached-solution map ``sol`` (Function 2's deferred admissions);
* the open DAG partition — its root's end label and, per tag, the list
  positions of the buffered candidates;
* what a flush still owes, **factorized**: the flushed partition's
  candidate pools, again as list positions, and the rank of the next
  match to emit (``pools`` / ``offset``).  A flush extends, spills,
  ranks and charges its matches once; they are then built in slices
  (``Enumeration.take``), here or in a later quantum, so the snapshot
  is bounded by the buffer and not by the answer;
* the cumulative work counters, emitted-match total and peak-buffer
  high-water marks.

:class:`PlanState` carries that snapshot and (de)serializes it to a
JSON-safe payload for the service's versioned, checksummed continuation
tokens (:mod:`repro.service.continuation`).  A candidate is carried as
its position only: labels and pointers are read back from the lists on
resume (one page access per position, like the cursors' repositioning).
Restoring a snapshot is otherwise **accounting-free**: cursors are
repositioned and buffers rebuilt without touching any work counter, so a
run resumed from quantum *k* finishes with counters byte-identical to an
uninterrupted run — the contract ``tests/test_preemption.py`` pins at
every suspension boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.base import Counters
from repro.errors import ContinuationMalformed, EvaluationError

#: Version of the serialized :class:`PlanState` payload.  Bumped whenever
#: the snapshot shape changes; tokens carrying another version are
#: rejected as malformed instead of being misinterpreted.
STATE_VERSION = 3


@dataclass(frozen=True)
class QuantumBudget:
    """Bounds on one quantum of a preemptible evaluation.

    Any combination of limits may be set; the run suspends at the first
    one reached.  Every quantum completes at least one driver step (or
    builds at least one slice of owed matches), so bounded budgets always
    make progress — a pathological budget can slow a query down but never
    wedge it.

    Args:
        max_steps: driver iterations (`get_next` calls from the driver)
            per quantum; at least 1.
        max_seconds: wall-clock budget per quantum, checked between
            driver steps (``time.perf_counter`` durations, so the check
            is deterministic-safe for the algorithms package).
        max_matches: output-page size — emitted matches per quantum;
            at least 1.  A flush producing more leaves the surplus
            factorized in the snapshot (``pools`` / ``offset``).
    """

    max_steps: int | None = None
    max_seconds: float | None = None
    max_matches: int | None = None

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps < 1:
            raise EvaluationError(
                "quantum max_steps must be at least 1 (a quantum always"
                " completes one driver step)"
            )
        if self.max_matches is not None and self.max_matches < 1:
            raise EvaluationError(
                "quantum max_matches must be at least 1 (a quantum always"
                " emits progress)"
            )
        if self.max_seconds is not None and self.max_seconds < 0:
            raise EvaluationError("quantum max_seconds must be >= 0")

    @property
    def bounded(self) -> bool:
        return (
            self.max_steps is not None
            or self.max_seconds is not None
            or self.max_matches is not None
        )

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "max_steps": self.max_steps,
            "max_seconds": self.max_seconds,
            "max_matches": self.max_matches,
        }

    @classmethod
    def from_dict(cls, payload: dict | None) -> "QuantumBudget | None":
        if payload is None:
            return None
        if not isinstance(payload, dict):
            raise ContinuationMalformed("quantum budget must be an object")
        steps = payload.get("max_steps")
        seconds = payload.get("max_seconds")
        matches = payload.get("max_matches")
        if steps is not None and not isinstance(steps, int):
            raise ContinuationMalformed("budget max_steps must be an int")
        if matches is not None and not isinstance(matches, int):
            raise ContinuationMalformed("budget max_matches must be an int")
        if seconds is not None and not isinstance(seconds, (int, float)):
            raise ContinuationMalformed("budget max_seconds must be a number")
        try:
            return cls(
                max_steps=steps, max_seconds=seconds, max_matches=matches
            )
        except EvaluationError as exc:
            raise ContinuationMalformed(str(exc)) from None


def _position_lists(payload, what: str) -> dict[str, list[int]]:
    """Per-tag candidate positions from ``[[tag, [int, ...]], ...]``:
    non-negative and strictly increasing (list order is document order).
    Whether they lie inside the tag's list is the resuming run's check —
    only it knows the list."""
    if not isinstance(payload, list):
        raise ContinuationMalformed(f"{what} lists must be a list")
    lists: dict[str, list[int]] = {}
    for item in payload:
        if (
            not isinstance(item, (list, tuple)) or len(item) != 2
            or not isinstance(item[0], str) or not isinstance(item[1], list)
        ):
            raise ContinuationMalformed(f"{what} item has a bad shape")
        tag, positions = item
        if any(
            not isinstance(position, int) or isinstance(position, bool)
            or position < 0
            for position in positions
        ):
            raise ContinuationMalformed(
                f"{what} positions must be non-negative integers"
            )
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise ContinuationMalformed(
                f"{what} positions for {tag!r} are not strictly increasing"
            )
        lists[tag] = positions
    return lists


def _tag_map(payload, what: str) -> dict[str, int]:
    if not isinstance(payload, list):
        raise ContinuationMalformed(f"{what} must be a list of pairs")
    result: dict[str, int] = {}
    for item in payload:
        if (
            not isinstance(item, (list, tuple)) or len(item) != 2
            or not isinstance(item[0], str) or not isinstance(item[1], int)
            or item[1] < 0
        ):
            raise ContinuationMalformed(f"{what} entries must be [tag, int]")
        result[item[0]] = item[1]
    return result


@dataclass
class PlanState:
    """Complete suspended position of one ViewJoin run.

    Produced by ``_ViewJoinRun.save_state`` at a quantum boundary and
    consumed by a fresh run built over the same (query, views, scheme,
    mode) — the token layer, not this snapshot, is responsible for
    guaranteeing that identity (and for rejecting snapshots that predate
    a maintenance commit: positions and labels are only meaningful
    against the exact store state they were taken from).
    """

    positions: dict[str, int]
    sol: dict[str, int]
    partition_end: int | None
    #: the open partition's candidates: per tag, positions in its list
    buffered: dict[str, list[int]]
    #: a flushed partition's candidate pools, per query tag as list
    #: positions, while matches of it are still owed (else empty) ...
    pools: dict[str, list[int]] = field(default_factory=dict)
    #: ... and the rank, in the pools' canonical enumeration, of the
    #: first match not yet emitted.
    offset: int = 0
    counters: Counters = field(default_factory=Counters)
    steps: int = 0
    done: bool = False
    match_count: int = 0
    peak_entries: int = 0
    output_seconds: float = 0.0

    def to_payload(self) -> dict:
        """JSON-safe snapshot (round-trips through ``from_payload``)."""
        return {
            "v": STATE_VERSION,
            "positions": [list(item) for item in self.positions.items()],
            "sol": [list(item) for item in self.sol.items()],
            "partition_end": self.partition_end,
            "buffered": [
                [tag, list(positions)]
                for tag, positions in self.buffered.items()
            ],
            "pools": [
                [tag, list(positions)]
                for tag, positions in self.pools.items()
            ],
            "offset": self.offset,
            "counters": self.counters.as_dict(),
            "steps": self.steps,
            "done": self.done,
            "match_count": self.match_count,
            "peak_entries": self.peak_entries,
            "output_seconds": self.output_seconds,
        }

    @classmethod
    def from_payload(cls, payload) -> "PlanState":
        """Rebuild a snapshot, validating every field.

        Raises :class:`ContinuationMalformed` on any structural problem —
        a tampered-but-checksum-valid payload must fail typed, never
        crash the engine with an ``AttributeError`` deep in a cursor.
        """
        if not isinstance(payload, dict):
            raise ContinuationMalformed("plan state must be an object")
        if payload.get("v") != STATE_VERSION:
            raise ContinuationMalformed(
                f"unsupported plan-state version {payload.get('v')!r}"
                f" (this build speaks version {STATE_VERSION})"
            )
        partition_end = payload.get("partition_end")
        if partition_end is not None and not isinstance(partition_end, int):
            raise ContinuationMalformed("partition_end must be an int")
        buffered = _position_lists(payload.get("buffered"), "buffered")
        pools = _position_lists(payload.get("pools"), "owed pool")
        counters_payload = payload.get("counters")
        blank = Counters().as_dict()
        if (
            not isinstance(counters_payload, dict)
            or set(counters_payload) != set(blank)
            or any(
                not isinstance(value, int) or value < 0
                for value in counters_payload.values()
            )
        ):
            raise ContinuationMalformed("counters have a bad shape")
        scalars = {}
        for key, kind in (
            ("steps", int), ("match_count", int), ("peak_entries", int),
            ("offset", int),
        ):
            value = payload.get(key)
            if not isinstance(value, kind) or value < 0:
                raise ContinuationMalformed(f"{key} must be a non-negative int")
            scalars[key] = value
        done = payload.get("done")
        if not isinstance(done, bool):
            raise ContinuationMalformed("done must be a bool")
        output_seconds = payload.get("output_seconds")
        if not isinstance(output_seconds, (int, float)) or output_seconds < 0:
            raise ContinuationMalformed("output_seconds must be non-negative")
        return cls(
            positions=_tag_map(payload.get("positions"), "cursor positions"),
            sol=_tag_map(payload.get("sol"), "cached solutions"),
            partition_end=partition_end,
            buffered=buffered,
            pools=pools,
            counters=Counters(**counters_payload),
            done=done,
            output_seconds=float(output_seconds),
            **scalars,
        )
