"""Online adaptive view advisor: workload log → calibrated cost → plan.

Offline, the advisor (``selection/workload_advisor.py``) picks views for
a *fixed* workload on *estimated* list sizes.  Served traffic drifts,
and every materialized view already stores the exact q-type list
cardinalities the estimates approximate.  This module closes the loop
in four deterministic pieces:

1. :class:`WorkloadLog` — a compact, serializable aggregate of the
   query stream: per-pattern demand weight (decayed across advisor
   cycles so stale traffic ages out) and the measured per-view list
   cardinalities harvested from the catalog.
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
4. :class:`OnlineAdvisor` — the controller loop outside the service:
   it records the outcomes its caller hands it and applies each cycle's
   plan through the service's public ``register`` and ``drop``, which
   carry the full cache/worker invalidation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import PatternParseError, SelectionError
from repro.selection.estimates import (
    CalibratedStatistics,
    DocumentStatistics,
    catalog_list_sizes,
)
from repro.selection.workload_advisor import recommend_for_workload
from repro.tpq.parser import parse_pattern
from repro.tpq.pattern import Pattern

#: Catalog/planner name prefix marking a view the advisor owns (and may
#: therefore drop when its payoff decays).  User-registered views are
#: never dropped by the controller.
ADVISOR_PREFIX = "adv:"

#: Demand-weight decay applied at the end of every :class:`OnlineAdvisor`
#: cycle: how fast traffic that stopped arriving loses its budget claim.
DECAY = 0.5

#: Largest candidate view, in pattern nodes, the online controller mines.
MAX_VIEW_SIZE = 4


def advisor_view_name(xpath: str) -> str:
    """The catalog/planner name of an advisor-adopted view."""
    return ADVISOR_PREFIX + xpath


@dataclass
class QueryObservation:
    """Aggregated stream record for one canonical query pattern."""

    query: str
    #: decayed demand weight — what the controller ranks by.  Each
    #: advisor cycle multiplies it by the decay factor, so patterns that
    #: stop arriving age out and their views become drop candidates.
    weight: float = 0.0

    def as_dict(self) -> dict[str, object]:
        return {"query": self.query, "weight": round(self.weight, 6)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QueryObservation":
        """Read an observation; keys other than ``query`` and ``weight``
        (the telemetry counters older logs carried) are ignored."""
        try:
            return cls(
                query=str(payload["query"]),
                weight=float(payload.get("weight", 0.0)),
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

        ``outcome`` is duck-typed: only its ``query``, ``refuted`` and
        ``error`` fields are read, so any
        :class:`repro.service.QueryOutcome` and a done
        :class:`repro.service.QuantumOutcome` both qualify.  A refuted
        or failed arrival is counted and keeps the pattern's
        first-arrival slot, but adds no demand weight.
        """
        obs = self._queries.get(outcome.query)
        if obs is None:
            obs = QueryObservation(query=outcome.query)
            self._queries[outcome.query] = obs
        self.recorded += 1
        if not (outcome.refuted or outcome.error):
            obs.weight += 1.0

    def harvest_catalog(self, catalog) -> int:
        """Record the exact list cardinalities the catalog's views store
        (:func:`~repro.selection.estimates.catalog_list_sizes`); returns
        how many views contributed.  Saved logs then replay offline with
        the same calibration the live service had."""
        measured = catalog_list_sizes(catalog)
        self.view_cardinalities.update(measured)
        return len(measured)

    def decay(self, factor: float = DECAY, floor: float = 0.5) -> int:
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
    max_view_size: int = MAX_VIEW_SIZE,
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


class OnlineAdvisor:
    """The adoption loop over a serving ``service``, from outside it.

    The caller hands it answered outcomes (:meth:`record`) and decides
    when to run a :meth:`cycle`.  ``service`` is duck-typed against
    :class:`repro.service.QueryService`: the advisor reads its
    ``catalog`` and ``planner.registered`` and changes the view set only
    through its public ``register`` and ``drop``, so adopting or
    dropping a view invalidates exactly what any registration does.
    Views the advisor adopts are named ``adv:<xpath>``; it never drops a
    view it did not adopt.
    """

    def __init__(self, service, budget_bytes: float) -> None:
        self.service = service
        #: storage budget for advisor-owned views.
        self.budget_bytes = float(budget_bytes)
        self.log = WorkloadLog()
        self._adopted: dict[str, AdoptedView] = {}
        self._events: list[dict[str, object]] = []
        self._cycles = 0
        self._stats: DocumentStatistics | None = None
        self._stats_epoch: int | None = None

    def record(self, outcomes: Iterable) -> None:
        """Fold answered outcomes into the log (see
        :meth:`WorkloadLog.record` for what an outcome must carry)."""
        for outcome in outcomes:
            self.log.record(outcome)

    def _statistics(self) -> DocumentStatistics:
        """Document statistics cached per maintenance epoch (the document
        only changes at maintenance commits)."""
        catalog = self.service.catalog
        epoch = catalog.maintenance_epoch
        if self._stats is None or self._stats_epoch != epoch:
            self._stats = DocumentStatistics.collect(catalog.document)
            self._stats_epoch = epoch
        return self._stats

    def cycle(self) -> AdoptionPlan:
        """Run one adoption cycle: calibrate, plan, adopt/drop, decay.

        Harvests measured list cardinalities from every materialized
        catalog view into the log, asks :func:`plan_adoption` for a
        budgeted adopt/keep/drop plan over the logged demand, drops and
        registers accordingly, evicts (lowest benefit density first)
        until the *measured* bytes fit the budget, then decays the log.

        Deterministic: decisions are a pure function of the recorded log
        and the catalog's measured sizes (no wall clock, no randomness).
        """
        service, log = self.service, self.log
        self._cycles += 1
        cycle = self._cycles
        stats = self._statistics()
        log.harvest_catalog(service.catalog)
        user_views = {
            view.to_xpath()
            for view in service.planner.registered
            if not (view.name or "").startswith(ADVISOR_PREFIX)
        }
        plan = plan_adoption(
            log,
            CalibratedStatistics.from_log(stats, log),
            budget_bytes=self.budget_bytes,
            adopted={
                xpath: view.bytes for xpath, view in self._adopted.items()
            },
            existing=user_views,
        )
        for decision in plan.decisions:
            if decision.action == "drop":
                self._events.append({"cycle": cycle, **decision.as_dict()})
        for xpath in plan.drop:
            self._drop(xpath)
        for pattern in plan.adopt:
            xpath = pattern.to_xpath()
            name = advisor_view_name(xpath)
            # Register by canonical text: the planner names parsed
            # patterns, and the ``adv:`` name is what marks the view as
            # advisor-owned (droppable) in catalog and planner alike.
            service.register(xpath, name=name)
            measured_bytes = float(sum(
                info.size_bytes
                for (view_name, __), info in service.catalog.entries()
                if view_name == name
            ))
            benefit = next(
                (
                    decision.benefit
                    for decision in plan.decisions
                    if decision.action == "adopt"
                    and decision.xpath == xpath
                ),
                0.0,
            )
            self._adopted[xpath] = AdoptedView(
                name=name, xpath=xpath, bytes=measured_bytes,
                benefit=benefit, cycle=cycle,
            )
            self._events.append({
                "cycle": cycle, "action": "adopt", "view": xpath,
                "bytes": round(measured_bytes, 1),
                "benefit": round(benefit, 1),
                "reason": "best remaining benefit density within budget",
            })
        # The knapsack packed by *estimated* bytes for new candidates;
        # materialization just measured the truth.  Evict (lowest
        # benefit density first) until the measured total fits again.
        for xpath in rebalance_to_budget(self._adopted, self.budget_bytes):
            view = self._adopted[xpath]
            self._events.append({
                "cycle": cycle, "action": "drop", "view": xpath,
                "bytes": round(view.bytes, 1),
                "benefit": round(view.benefit, 1),
                "reason": "measured bytes exceeded the budget after"
                          " materialization",
            })
            self._drop(xpath)
        log.decay()
        return plan

    def _drop(self, xpath: str) -> None:
        self.service.drop(self._adopted.pop(xpath).name)

    def metrics(self) -> dict[str, object]:
        """Recorder/controller telemetry for operators and benches."""
        return {
            "recorded": self.log.recorded,
            "patterns": len(self.log),
            "cycles": self._cycles,
            "budget_bytes": self.budget_bytes,
            "adopted_bytes": sum(
                view.bytes for view in self._adopted.values()
            ),
            "adopted_views": [
                view.as_dict() for view in self._adopted.values()
            ],
            "events": list(self._events),
        }


__all__ = [
    "ADVISOR_PREFIX",
    "AdoptedView",
    "AdoptionDecision",
    "AdoptionPlan",
    "DECAY",
    "MAX_VIEW_SIZE",
    "OnlineAdvisor",
    "QueryObservation",
    "WorkloadLog",
    "advisor_view_name",
    "plan_adoption",
    "rebalance_to_budget",
]
