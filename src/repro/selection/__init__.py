"""View selection (paper Section V): list-size sources, the cost model,
the greedy heuristic, and the advisor built on them."""

from repro.selection.cost import ViewCost, residual_edges, view_cost
from repro.selection.estimates import (
    CalibratedStatistics,
    DocumentStatistics,
    ExactSizes,
)
from repro.selection.greedy import SelectionResult, select_views
from repro.selection.online import (
    ADVISOR_PREFIX,
    AdoptedView,
    AdoptionDecision,
    AdoptionPlan,
    OnlineAdvisor,
    QueryObservation,
    WorkloadLog,
    advisor_view_name,
    plan_adoption,
    rebalance_to_budget,
)
from repro.selection.workload_advisor import (
    WorkloadAdvice,
    WorkloadCandidate,
    enumerate_connected_subpatterns,
    estimate_view_bytes,
    recommend_for_workload,
)

__all__ = [
    "ViewCost",
    "residual_edges",
    "view_cost",
    "CalibratedStatistics",
    "DocumentStatistics",
    "ExactSizes",
    "SelectionResult",
    "select_views",
    "WorkloadAdvice",
    "WorkloadCandidate",
    "enumerate_connected_subpatterns",
    "estimate_view_bytes",
    "recommend_for_workload",
    "ADVISOR_PREFIX",
    "AdoptedView",
    "AdoptionDecision",
    "AdoptionPlan",
    "OnlineAdvisor",
    "QueryObservation",
    "WorkloadLog",
    "advisor_view_name",
    "plan_adoption",
    "rebalance_to_budget",
]
