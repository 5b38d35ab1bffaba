"""Cost-based access-path selection (the paper's future-work optimizer)."""

from .executor import (
    DegradationEvent,
    ExecutablePlan,
    PhysicalDesign,
    PlanExhaustedError,
    QueryResult,
    execute_sorted_query,
    plan_sorted_query,
    register_degradation_observer,
    unregister_degradation_observer,
)
from .optimizer import CandidatePlan, RelationStats, choose_plan, enumerate_plans
from .parallel import (
    ParallelScanResult,
    SweepSlab,
    parallel_tetris_scan,
    plan_slabs,
)
from .statistics import AttributeHistogram, TableStatistics

__all__ = [
    "AttributeHistogram",
    "CandidatePlan",
    "DegradationEvent",
    "ExecutablePlan",
    "ParallelScanResult",
    "PhysicalDesign",
    "PlanExhaustedError",
    "QueryResult",
    "RelationStats",
    "SweepSlab",
    "choose_plan",
    "TableStatistics",
    "enumerate_plans",
    "execute_sorted_query",
    "parallel_tetris_scan",
    "plan_slabs",
    "plan_sorted_query",
    "register_degradation_observer",
    "unregister_degradation_observer",
]
