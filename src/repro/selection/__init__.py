"""View selection (paper Section V): cost model, statistics-based
estimates and the greedy heuristic."""

from repro.selection.advisor import (
    AdvisorResult,
    Recommendation,
    enumerate_connected_subpatterns,
    recommend_views,
)
from repro.selection.cost import ViewCost, residual_edges, view_cost
from repro.selection.estimates import (
    DocumentStatistics,
    estimate_list_size,
    estimate_view_cost,
    select_views_estimated,
)
from repro.selection.greedy import SelectionResult, select_views
from repro.selection.online import (
    ADVISOR_PREFIX,
    AdoptedView,
    AdoptionDecision,
    AdoptionPlan,
    CalibratedStatistics,
    Measurement,
    QueryObservation,
    WorkloadLog,
    advisor_view_name,
    measure_view_cardinalities,
    plan_adoption,
    rebalance_to_budget,
)
from repro.selection.workload_advisor import (
    WorkloadAdvice,
    WorkloadCandidate,
    estimate_view_bytes,
    recommend_for_workload,
)

__all__ = [
    "AdvisorResult",
    "Recommendation",
    "enumerate_connected_subpatterns",
    "recommend_views",
    "ViewCost",
    "residual_edges",
    "view_cost",
    "DocumentStatistics",
    "estimate_list_size",
    "estimate_view_cost",
    "select_views_estimated",
    "SelectionResult",
    "select_views",
    "WorkloadAdvice",
    "WorkloadCandidate",
    "estimate_view_bytes",
    "recommend_for_workload",
    "ADVISOR_PREFIX",
    "AdoptedView",
    "AdoptionDecision",
    "AdoptionPlan",
    "CalibratedStatistics",
    "Measurement",
    "QueryObservation",
    "WorkloadLog",
    "advisor_view_name",
    "measure_view_cardinalities",
    "plan_adoption",
    "rebalance_to_budget",
]
