"""The paper's contribution: join-view maintenance methods and planning."""

from .delta import Delta, PlacedRow
from .view import (
    BoundView,
    JoinCondition,
    JoinViewDefinition,
    ViewDefinitionError,
    two_way_view,
)
from .multiway import (
    AuxiliaryAccess,
    BaseAccess,
    CompiledJoin,
    GlobalIndexAccess,
    Hop,
    JoinLayout,
    MaintenancePlan,
    OutputMapper,
    enumerate_orders,
)
from .maintenance import JoinStrategy, JoinViewMaintainer, MaintenanceMethod
from .optimizer import (
    MaintenancePlanner,
    MethodAdvisor,
    MethodRecommendation,
    PlanningError,
)
from .statistics import RelationStatistics, StatisticsCache
from .trimming import (
    AuxiliaryRequirement,
    merge_requirements,
    requirement_for,
    trimming_savings,
)
from .hybrid import DEFAULT_AR_ROW_BUDGET, provision_hybrid
from .shared import MultiViewStats, SharedMaintenanceContext, maintain_views
from .workload_advisor import WorkloadAdvisor, WorkloadProfile, WorkloadVerdict
from .aggregates import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    aggregate_rows,
    define_aggregate_join_view,
    recompute_aggregate,
)
from .deferred import (
    DeferredMaintainer,
    RefreshReport,
    defer_view,
    fresh_view_rows,
)
from .registry import define_join_view, recompute_view

__all__ = [
    "Delta",
    "PlacedRow",
    "JoinCondition",
    "JoinViewDefinition",
    "BoundView",
    "ViewDefinitionError",
    "two_way_view",
    "BaseAccess",
    "AuxiliaryAccess",
    "GlobalIndexAccess",
    "CompiledJoin",
    "Hop",
    "JoinLayout",
    "MaintenancePlan",
    "OutputMapper",
    "enumerate_orders",
    "MaintenanceMethod",
    "JoinStrategy",
    "JoinViewMaintainer",
    "MaintenancePlanner",
    "MethodAdvisor",
    "MethodRecommendation",
    "PlanningError",
    "RelationStatistics",
    "StatisticsCache",
    "AuxiliaryRequirement",
    "requirement_for",
    "merge_requirements",
    "trimming_savings",
    "define_join_view",
    "recompute_view",
    "provision_hybrid",
    "DEFAULT_AR_ROW_BUDGET",
    "WorkloadAdvisor",
    "WorkloadProfile",
    "WorkloadVerdict",
    "MultiViewStats",
    "SharedMaintenanceContext",
    "maintain_views",
    "Aggregate",
    "AggregateFunction",
    "AggregateSpec",
    "define_aggregate_join_view",
    "aggregate_rows",
    "recompute_aggregate",
    "DeferredMaintainer",
    "RefreshReport",
    "defer_view",
    "fresh_view_rows",
]
