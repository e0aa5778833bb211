"""Preemptible evaluation: quantum budgets and resumable plan state.

A ViewJoin run can be bounded to a **quantum** — a slice of work measured
in driver steps (`get_next` iterations), wall seconds, or emitted matches
(:class:`QuantumBudget`).  When the budget is exhausted the run suspends
at the top of its driver loop, a consistent point where the whole
position is a handful of integers:

* one entry index per retained-tag cursor (view cursors);
* the cached-solution map ``sol`` (Function 2's deferred admissions);
* the open DAG partition — its root's end label and the per-tag buffered
  candidate lists;
* what a flush still owes, **factorized**: the flushed partition's
  projected candidate pools and the rank of the next match to emit
  (``pools`` / ``offset``).  A flush extends, spills, ranks and charges
  its matches once; they are then built in slices
  (``Enumeration.take``), here or in a later quantum, so the snapshot
  is bounded by the buffer and not by the answer;
* the cumulative work counters, emitted-match total and peak-buffer
  high-water marks.

:class:`PlanState` carries that snapshot and (de)serializes it to a
JSON-safe payload for the service's versioned, checksummed continuation
tokens (:mod:`repro.service.continuation`).  Restoring a snapshot is
**accounting-free**: cursors are repositioned and buffers rebuilt without
touching any counter, so a run resumed from quantum *k* finishes with
counters byte-identical to an uninterrupted run — the contract
``tests/test_preemption.py`` pins at every suspension boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.base import Counters
from repro.errors import ContinuationMalformed, EvaluationError
from repro.storage.records import ElementEntry, LinkedEntry

#: Version of the serialized :class:`PlanState` payload.  Bumped whenever
#: the snapshot shape changes; tokens carrying another version are
#: rejected as malformed instead of being misinterpreted.
STATE_VERSION = 2


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


# -- entry (de)serialization ----------------------------------------------------

_KIND_ELEMENT = "E"
_KIND_LINKED = "L"


def _pack_entries(entries: list) -> list:
    """Flatten one buffered candidate list to ``[kind, width, ints]``."""
    if not entries:
        return [_KIND_ELEMENT, 3, []]
    first = entries[0]
    flat: list[int] = []
    if isinstance(first, LinkedEntry):
        width = 5 + len(first.children)
        for entry in entries:
            flat.extend(
                (entry.start, entry.end, entry.level,
                 entry.following, entry.descendant)
            )
            flat.extend(entry.children)
        return [_KIND_LINKED, width, flat]
    for entry in entries:
        flat.extend((entry.start, entry.end, entry.level))
    return [_KIND_ELEMENT, 3, flat]


def _unpack_entries(payload) -> list:
    """Inverse of :func:`_pack_entries`, with full shape validation."""
    if (
        not isinstance(payload, (list, tuple)) or len(payload) != 3
        or payload[0] not in (_KIND_ELEMENT, _KIND_LINKED)
        or not isinstance(payload[1], int)
        or not isinstance(payload[2], list)
    ):
        raise ContinuationMalformed("buffered entry list has a bad shape")
    kind, width, flat = payload
    if any(not isinstance(value, int) for value in flat):
        raise ContinuationMalformed("buffered entries must be integers")
    if width < 3 or (kind == _KIND_LINKED and width < 5):
        raise ContinuationMalformed(f"bad entry width {width}")
    if len(flat) % width:
        raise ContinuationMalformed(
            f"entry data length {len(flat)} is not a multiple of {width}"
        )
    entries: list = []
    if kind == _KIND_ELEMENT:
        if width != 3:
            raise ContinuationMalformed("element entries have width 3")
        for i in range(0, len(flat), 3):
            entries.append(ElementEntry(flat[i], flat[i + 1], flat[i + 2]))
        return entries
    for i in range(0, len(flat), width):
        entries.append(
            LinkedEntry(
                flat[i], flat[i + 1], flat[i + 2], flat[i + 3], flat[i + 4],
                tuple(flat[i + 5:i + width]),
            )
        )
    return entries


def _entry_lists(payload, what: str, kinds: str) -> dict[str, list]:
    """Per-tag entry lists from ``[[tag, kind, width, ints], ...]``,
    each ``kind`` one of ``kinds``."""
    if not isinstance(payload, list):
        raise ContinuationMalformed(f"{what} lists must be a list")
    lists: dict[str, list] = {}
    for item in payload:
        if (
            not isinstance(item, (list, tuple)) or len(item) != 4
            or not isinstance(item[0], str) or item[1] not in tuple(kinds)
        ):
            raise ContinuationMalformed(f"{what} item has a bad shape")
        lists[item[0]] = _unpack_entries(item[1:])
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
    buffered: dict[str, list]
    #: a flushed partition's projected candidate pools, by query tag,
    #: while matches of it are still owed (else empty) ...
    pools: dict[str, list] = field(default_factory=dict)
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
                [tag, *_pack_entries(entries)]
                for tag, entries in self.buffered.items()
            ],
            "pools": [
                [tag, *_pack_entries(entries)]
                for tag, entries in self.pools.items()
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
        buffered = _entry_lists(
            payload.get("buffered"), "buffered",
            _KIND_ELEMENT + _KIND_LINKED,
        )
        # flushed pools were projected to bare element entries
        pools = _entry_lists(payload.get("pools"), "owed pool", _KIND_ELEMENT)
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
