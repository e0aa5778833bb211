"""Online adaptive view advisor: workload log → calibrated cost → plan.

Offline, the advisor (``selection/workload_advisor.py``) picks views for
a *fixed* workload on *estimated* list sizes.  Served traffic drifts,
and the serving layer already measures exactly the
quantities the cost model guesses at: per-query work and I/O counters
(:class:`Measurement`), and — for every materialized view — the exact
q-type list cardinalities the estimates approximate.  This module closes
the loop in three deterministic pieces:

1. :class:`WorkloadLog` — a compact, serializable aggregate of the live
   query stream: per-pattern demand weight (decayed across advisor
   cycles so stale traffic ages out), measured counters, cache/replay
   telemetry, and the measured per-view list cardinalities harvested
   from the catalog.
2. :class:`~repro.selection.estimates.CalibratedStatistics` — the
   measured-first size source: ``list_size`` answers from the harvested
   cardinalities and falls back to the independence-assumption estimate
   only for never-materialized patterns.
3. :func:`plan_adoption` — the adoption controller: scores candidate
   views mined from the logged patterns by *demand-weighted measured
   benefit density* under a storage budget, and recommends which views
   to adopt, keep, or drop.  Pure function of ``(log, sizes, budget,
   currently adopted set)`` — no wall clock, no randomness — so a
   recorded log replays to the identical plan offline
   (``viewjoin advise --from-log``).

:class:`repro.service.QueryService` owns the serving-side integration
(recording, the background cycle cadence, materialization and full
cache/worker invalidation on adopt/drop).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import PatternParseError, SelectionError
from repro.selection.estimates import catalog_list_sizes
from repro.selection.workload_advisor import recommend_for_workload
from repro.tpq.parser import parse_pattern
from repro.tpq.pattern import Pattern

#: Catalog/planner name prefix marking a view the advisor owns (and may
#: therefore drop when its payoff decays).  User-registered views are
#: never dropped by the controller.
ADVISOR_PREFIX = "adv:"


def advisor_view_name(xpath: str) -> str:
    """The catalog/planner name of an advisor-adopted view."""
    return ADVISOR_PREFIX + xpath


@dataclass(frozen=True)
class Measurement:
    """Measured per-query counters: the single authoritative contract.

    Every answered query exposes exactly one of these
    (:attr:`repro.service.QueryOutcome.measured`); the workload recorder
    and external consumers read it instead of digging through the raw
    ``counters``/``io`` objects and re-deriving totals.  All fields are
    the run's *recorded* deterministic values — for cached/shared
    replays they equal what an independent execution would have
    measured (the service's replay-accounting contract), i.e. the
    query's logical demand.
    """

    #: scalar CPU-side work (``Counters.work``).
    work: int
    elements_scanned: int
    comparisons: int
    logical_reads: int
    physical_reads: int
    matches: int
    #: wall-clock of the run (the only non-deterministic field).
    elapsed_s: float

    def as_dict(self) -> dict[str, float]:
        return {
            "work": self.work,
            "elements_scanned": self.elements_scanned,
            "comparisons": self.comparisons,
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            "matches": self.matches,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class QueryObservation:
    """Aggregated stream record for one canonical query pattern."""

    query: str
    #: lifetime arrival count (never decayed; telemetry).
    count: int = 0
    #: decayed demand weight — what the controller ranks by.  Each
    #: advisor cycle multiplies it by the decay factor, so patterns that
    #: stop arriving age out and their views become drop candidates.
    weight: float = 0.0
    work: int = 0
    elements_scanned: int = 0
    logical_reads: int = 0
    physical_reads: int = 0
    matches: int = 0
    elapsed_s: float = 0.0
    cache_hits: int = 0
    shared_replays: int = 0
    refuted: int = 0
    degraded: int = 0
    errors: int = 0
    #: view names of the last recorded plan (usage telemetry).
    plan_views: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "query": self.query,
            "count": self.count,
            "weight": round(self.weight, 6),
            "work": self.work,
            "elements_scanned": self.elements_scanned,
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            "matches": self.matches,
            "elapsed_s": round(self.elapsed_s, 6),
            "cache_hits": self.cache_hits,
            "shared_replays": self.shared_replays,
            "refuted": self.refuted,
            "degraded": self.degraded,
            "errors": self.errors,
            "plan_views": list(self.plan_views),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QueryObservation":
        try:
            return cls(
                query=str(payload["query"]),
                count=int(payload.get("count", 0)),
                weight=float(payload.get("weight", 0.0)),
                work=int(payload.get("work", 0)),
                elements_scanned=int(payload.get("elements_scanned", 0)),
                logical_reads=int(payload.get("logical_reads", 0)),
                physical_reads=int(payload.get("physical_reads", 0)),
                matches=int(payload.get("matches", 0)),
                elapsed_s=float(payload.get("elapsed_s", 0.0)),
                cache_hits=int(payload.get("cache_hits", 0)),
                shared_replays=int(payload.get("shared_replays", 0)),
                refuted=int(payload.get("refuted", 0)),
                degraded=int(payload.get("degraded", 0)),
                errors=int(payload.get("errors", 0)),
                plan_views=tuple(payload.get("plan_views", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SelectionError(
                f"malformed workload-log observation: {exc}"
            ) from exc


class WorkloadLog:
    """Compact aggregate of the live query stream.

    Observations are keyed by canonical query text in first-arrival
    order, which makes every downstream decision deterministic: the
    candidate pool (and therefore every knapsack tie-break) is a pure
    function of the log contents.  ``view_cardinalities`` carries the
    measured q-type list sizes harvested from materialized views, so a
    saved log replays offline with the same calibration the live
    service had.
    """

    def __init__(self) -> None:
        self._queries: dict[str, QueryObservation] = {}
        #: measured list sizes: view xpath -> tag -> exact |L_tag|.
        self.view_cardinalities: dict[str, dict[str, int]] = {}
        #: lifetime recorded outcomes (including cache hits/refutations).
        self.recorded = 0

    # -- recording -------------------------------------------------------------

    def record(self, outcome) -> None:
        """Fold one answered query into the log.

        ``outcome`` is duck-typed against the
        :class:`repro.service.QueryOutcome` contract: ``query``,
        ``measured`` (a :class:`Measurement`), and the
        ``cached``/``shared``/``refuted``/``degraded``/``error`` flags.
        Counters are accumulated for cached and shared replays too —
        the recorded values equal what an independent execution would
        have measured, so the totals represent the pattern's logical
        demand (what the view set would have to absorb without caching).
        """
        obs = self._queries.get(outcome.query)
        if obs is None:
            obs = QueryObservation(query=outcome.query)
            self._queries[outcome.query] = obs
        self.recorded += 1
        obs.count += 1
        if outcome.refuted:
            obs.refuted += 1
            return
        if getattr(outcome, "error", ""):
            obs.errors += 1
            return
        obs.weight += 1.0
        measured: Measurement = outcome.measured
        obs.work += measured.work
        obs.elements_scanned += measured.elements_scanned
        obs.logical_reads += measured.logical_reads
        obs.physical_reads += measured.physical_reads
        obs.matches += measured.matches
        obs.elapsed_s += measured.elapsed_s
        if outcome.cached:
            obs.cache_hits += 1
        elif getattr(outcome, "shared", False):
            obs.shared_replays += 1
        if getattr(outcome, "degraded", False):
            obs.degraded += 1
        plan_views = tuple(getattr(outcome, "plan_views", ()))
        if plan_views:
            obs.plan_views = plan_views

    def harvest_catalog(self, catalog) -> int:
        """Record the exact list cardinalities the catalog's views store
        (:func:`~repro.selection.estimates.catalog_list_sizes`); returns
        how many views contributed.  Saved logs then replay offline with
        the same calibration the live service had."""
        measured = catalog_list_sizes(catalog)
        self.view_cardinalities.update(measured)
        return len(measured)

    def decay(self, factor: float = 0.5, floor: float = 0.5) -> int:
        """Age demand weights by ``factor``; prune observations whose
        weight fell below ``floor``.  Called at the end of each advisor
        cycle so traffic that stopped arriving loses its claim on the
        budget — the mechanism behind payoff-decay drops.  Returns how
        many observations were pruned.
        """
        if not 0.0 <= factor <= 1.0:
            raise SelectionError(
                f"decay factor must be in [0, 1], got {factor}"
            )
        doomed: list[str] = []
        for query, obs in self._queries.items():
            obs.weight *= factor
            if obs.weight < floor:
                doomed.append(query)
        for query in doomed:
            del self._queries[query]
        return len(doomed)

    # -- views of the log ------------------------------------------------------

    def observations(self) -> list[QueryObservation]:
        """Observations in first-arrival order (deterministic)."""
        return list(self._queries.values())

    def get(self, query: str) -> QueryObservation | None:
        return self._queries.get(query)

    def __len__(self) -> int:
        """Number of distinct patterns currently held."""
        return len(self._queries)

    def clear(self) -> None:
        self._queries.clear()
        self.view_cardinalities.clear()

    # -- serialization ---------------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        return {
            "recorded": self.recorded,
            "queries": [obs.as_dict() for obs in self._queries.values()],
            "view_cardinalities": {
                xpath: dict(sizes)
                for xpath, sizes in self.view_cardinalities.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "WorkloadLog":
        log = cls()
        try:
            log.recorded = int(payload.get("recorded", 0))
            for entry in payload.get("queries", []):
                obs = QueryObservation.from_dict(entry)
                log._queries[obs.query] = obs
            for xpath, sizes in dict(
                payload.get("view_cardinalities", {})
            ).items():
                log.view_cardinalities[str(xpath)] = {
                    str(tag): int(size) for tag, size in dict(sizes).items()
                }
        except (AttributeError, TypeError, ValueError) as exc:
            raise SelectionError(f"malformed workload log: {exc}") from exc
        return log

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=1, sort_keys=False)

    @classmethod
    def loads(cls, text: str) -> "WorkloadLog":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SelectionError(f"workload log is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SelectionError("workload log must be a JSON object")
        return cls.from_dict(payload)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path) -> "WorkloadLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())


# -- adoption controller -------------------------------------------------------


@dataclass(frozen=True)
class AdoptedView:
    """One advisor-owned materialized view and its bookkeeping."""

    name: str
    xpath: str
    bytes: float
    benefit: float
    #: advisor cycle (1-based) that adopted the view.
    cycle: int

    @property
    def density(self) -> float:
        return self.benefit / max(self.bytes, 1.0)

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "xpath": self.xpath,
            "bytes": round(self.bytes, 1),
            "benefit": round(self.benefit, 1),
            "cycle": self.cycle,
        }


@dataclass(frozen=True)
class AdoptionDecision:
    """One controller decision with its justification."""

    action: str  # "adopt" | "keep" | "drop"
    xpath: str
    benefit: float
    bytes: float
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {
            "action": self.action,
            "view": self.xpath,
            "benefit": round(self.benefit, 1),
            "bytes": round(self.bytes, 1),
            "reason": self.reason,
        }


@dataclass
class AdoptionPlan:
    """What one advisor cycle wants the catalog to look like."""

    adopt: list[Pattern]
    drop: list[str]  # xpaths of advisor views whose payoff decayed
    keep: list[str]
    decisions: list[AdoptionDecision]
    budget_bytes: float
    #: projected storage of the advisor view set after applying the plan
    #: (measured bytes for already-adopted survivors, estimates for new
    #: adoptions until materialization measures them).
    projected_bytes: float
    #: distinct logged patterns that drove the plan.
    demand_patterns: int
    notes: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.adopt or self.drop)


def plan_adoption(
    log: WorkloadLog,
    sizes,
    budget_bytes: float,
    adopted: Mapping[str, float] | None = None,
    existing: Iterable[str] = (),
    max_view_size: int = 4,
    min_weight: float = 1.0,
) -> AdoptionPlan:
    """Deterministic budgeted adopt/keep/drop plan for the logged demand.

    Candidates are the connected subpatterns of every logged pattern
    whose decayed demand weight is at least ``min_weight``; each is
    scored by demand-weighted saving (base-view cost minus view cost,
    both on ``sizes`` — measured cardinalities first when it is a
    :class:`~repro.selection.estimates.CalibratedStatistics`) per byte,
    and a greedy knapsack packs the budget.  Currently adopted views
    compete like any other candidate, with their *measured* bytes: a view whose
    weighted benefit no longer earns its storage — because its queries
    stopped arriving or better candidates displaced it — lands in
    ``drop``.

    Args:
        log: the recorded query stream.
        sizes: the ``|L_q|`` source — document statistics, ideally
            calibrated.
        budget_bytes: storage budget for advisor-owned views.
        adopted: currently advisor-owned views as ``xpath -> measured
            bytes`` (insertion order preserved for determinism).
        existing: xpaths of user-registered views — excluded from
            candidacy (the advisor never duplicates or drops them).
        max_view_size: largest candidate view in nodes.
        min_weight: smallest decayed demand weight a pattern needs to
            influence the plan.
    """
    adopted = dict(adopted or {})
    excluded = set(existing)
    queries: list[Pattern] = []
    weights: dict[str, float] = {}
    for obs in log.observations():
        if obs.weight < min_weight or not obs.query:
            continue
        try:
            pattern = parse_pattern(obs.query)
        except PatternParseError:  # pragma: no cover - canonical text parses
            continue
        key = pattern.name or pattern.to_xpath()
        if key not in weights:
            queries.append(pattern)
        weights[key] = weights.get(key, 0.0) + obs.weight

    notes: list[str] = []
    if not queries:
        # No demand above the floor: every advisor view has decayed out.
        decisions = [
            AdoptionDecision(
                action="drop", xpath=xpath, benefit=0.0,
                bytes=adopted[xpath],
                reason="no remaining demand for any pattern it serves",
            )
            for xpath in adopted
        ]
        return AdoptionPlan(
            adopt=[], drop=list(adopted), keep=[], decisions=decisions,
            budget_bytes=budget_bytes, projected_bytes=0.0,
            demand_patterns=0,
            notes=["log holds no pattern above the demand floor"],
        )

    advice = recommend_for_workload(
        queries,
        sizes,
        budget_bytes=budget_bytes,
        max_view_size=max_view_size,
        weights=weights,
        known_bytes=adopted,
        exclude={xpath for xpath in excluded if xpath not in adopted},
        # Measured-hot queries may displace the small shared views the
        # static density order admits first and earn their own exact
        # view — the wall-clock win the offline (unweighted) advisor
        # has no demand signal to justify.
        specialize=True,
    )
    notes.extend(advice.notes)

    winners: dict[str, float] = {}
    winner_bytes: dict[str, float] = {}
    for candidate in advice.chosen:
        xpath = candidate.view.to_xpath()
        winners[xpath] = candidate.total_saving
        winner_bytes[xpath] = candidate.estimated_bytes

    decisions: list[AdoptionDecision] = []
    adopt: list[Pattern] = []
    keep: list[str] = []
    drop: list[str] = []
    for candidate in advice.chosen:
        xpath = candidate.view.to_xpath()
        if xpath in adopted:
            keep.append(xpath)
            decisions.append(AdoptionDecision(
                action="keep", xpath=xpath,
                benefit=candidate.total_saving,
                bytes=adopted[xpath],
                reason="still earns its storage under current demand",
            ))
        else:
            adopt.append(candidate.view)
            decisions.append(AdoptionDecision(
                action="adopt", xpath=xpath,
                benefit=candidate.total_saving,
                bytes=candidate.estimated_bytes,
                reason="best remaining benefit density within budget",
            ))
    for xpath, size in adopted.items():
        if xpath in winners:
            continue
        drop.append(xpath)
        decisions.append(AdoptionDecision(
            action="drop", xpath=xpath, benefit=0.0, bytes=size,
            reason="observed payoff decayed below the budget's"
                   " marginal density",
        ))
    projected = sum(
        adopted.get(xpath, winner_bytes[xpath]) for xpath in winners
    )
    return AdoptionPlan(
        adopt=adopt,
        drop=drop,
        keep=keep,
        decisions=decisions,
        budget_bytes=budget_bytes,
        projected_bytes=projected,
        demand_patterns=len(queries),
        notes=notes,
    )


def rebalance_to_budget(
    adopted: Mapping[str, AdoptedView], budget_bytes: float
) -> list[str]:
    """Views to evict (lowest benefit density first) so the *measured*
    total fits the budget.

    The planner packs by estimated bytes; materialization then measures
    the truth.  When estimates undershot, this deterministic eviction
    pass restores the budget invariant.  Ties break on xpath so the
    result is stable across runs.
    """
    total = sum(view.bytes for view in adopted.values())
    if total <= budget_bytes:
        return []
    ranked = sorted(
        adopted.values(), key=lambda view: (view.density, view.xpath)
    )
    evict: list[str] = []
    for view in ranked:
        if total <= budget_bytes:
            break
        evict.append(view.xpath)
        total -= view.bytes
    return evict


__all__ = [
    "ADVISOR_PREFIX",
    "AdoptedView",
    "AdoptionDecision",
    "AdoptionPlan",
    "Measurement",
    "QueryObservation",
    "WorkloadLog",
    "advisor_view_name",
    "plan_adoption",
    "rebalance_to_budget",
]
