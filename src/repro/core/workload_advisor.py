"""Workload-level advice: is the view worth materializing at all?

The paper's method chooser (§4) assumes the view exists and picks how to
maintain it.  One level up sits the question every warehouse DBA actually
faces: given a mixed workload — so many queries, so many update
transactions per period — does the query acceleration pay for the
maintenance at all, and under which method?  This module prices exactly
that trade, combining the query engine's plan estimates with the
analytical model's per-method maintenance TW.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..model import (
    JoinRegime,
    MethodVariant,
    ModelParameters,
    response_time_ios,
    total_workload_ios,
)
from .maintenance import MaintenanceMethod
from .view import BoundView


@dataclass(frozen=True)
class WorkloadProfile:
    """Activity per accounting period (an hour, a day — any fixed window).

    ``full_queries`` read the whole join result; ``pinned_lookups`` pin the
    view's partitioning attribute with an equality predicate;
    ``update_transactions`` each change ``tuples_per_update`` base tuples.
    """

    full_queries: float = 0.0
    pinned_lookups: float = 0.0
    update_transactions: float = 0.0
    tuples_per_update: int = 1

    def __post_init__(self) -> None:
        if min(self.full_queries, self.pinned_lookups, self.update_transactions) < 0:
            raise ValueError("workload rates must be non-negative")
        if self.tuples_per_update < 1:
            raise ValueError("tuples_per_update must be >= 1")


@dataclass(frozen=True)
class WorkloadVerdict:
    """The advisor's answer for one view under one profile."""

    materialize: bool
    method: Optional[MaintenanceMethod]
    net_benefit_ios: float
    query_cost_without_view: float
    query_cost_with_view: float
    maintenance_cost: float
    per_method_maintenance: Dict[str, float] = field(default_factory=dict)

    def explain(self) -> str:
        if not self.materialize:
            return (
                f"do not materialize: maintenance ({self.maintenance_cost:,.0f} "
                f"I/Os/period under the best method) exceeds the query "
                f"saving ({self.query_cost_without_view - self.query_cost_with_view:,.0f})"
            )
        assert self.method is not None
        return (
            f"materialize with the {self.method.value} method: queries drop "
            f"from {self.query_cost_without_view:,.0f} to "
            f"{self.query_cost_with_view:,.0f} I/Os/period, maintenance adds "
            f"{self.maintenance_cost:,.0f}, net saving "
            f"{self.net_benefit_ios:,.0f}"
        )


class WorkloadAdvisor:
    """Prices a (view, workload) pair end to end."""

    def __init__(
        self,
        cluster,
        bound: BoundView,
        clustered_base_indexes: bool = False,
    ) -> None:
        self.cluster = cluster
        self.bound = bound
        self.clustered_base_indexes = clustered_base_indexes
        self.statistics = cluster.statistics

    # ------------------------------------------------------- cost pieces

    def base_join_cost(self) -> float:
        """Pages read to answer the join from the base relations once."""
        return float(
            sum(
                max(1, self.cluster.relation_pages(relation))
                for relation in self.bound.definition.relations
            )
        )

    def view_scan_cost(self) -> float:
        """Pages of the view result, estimated from join cardinality."""
        first = self.bound.definition.relations[0]
        contents_rows = float(max(1, self.statistics.rows(first)))
        for condition in self.bound.definition.conditions:
            partner, column = condition.right, condition.right_column
            contents_rows *= max(
                1.0, self.statistics.fanout(partner, column)
            )
        return max(1.0, contents_rows / self.cluster.layout.tuples_per_page)

    def pinned_lookup_cost(self) -> float:
        """One SEARCH at one node (plus the landing page of matches)."""
        return 2.0

    def maintenance_cost_per_txn(self, method: MaintenanceMethod, tuples: int) -> float:
        """Model TW of one update transaction under ``method``.

        Uses total workload (the throughput currency), with the regime
        chosen by cost as in Figure 11.
        """
        params = self._model_params()
        variant = {
            MaintenanceMethod.NAIVE: (
                MethodVariant.NAIVE_CLUSTERED
                if self.clustered_base_indexes
                else MethodVariant.NAIVE_NONCLUSTERED
            ),
            MaintenanceMethod.AUXILIARY: MethodVariant.AUXILIARY,
            MaintenanceMethod.GLOBAL_INDEX: (
                MethodVariant.GI_CLUSTERED
                if self.clustered_base_indexes
                else MethodVariant.GI_NONCLUSTERED
            ),
        }[method]
        per_tuple_tw = total_workload_ios(variant, params)
        inl_total = tuples * per_tuple_tw
        # Sort-merge alternative: every node passes over its fragment once.
        sort_merge_total = params.num_nodes * response_time_ios(
            variant, tuples, params, JoinRegime.SORT_MERGE
        )
        return min(inl_total, sort_merge_total)

    def _model_params(self) -> ModelParameters:
        definition = self.bound.definition
        partner = max(
            definition.relations[1:] or definition.relations,
            key=self.statistics.rows,
        )
        condition = definition.conditions_touching(partner)[0]
        column = condition.column_of(partner)
        return ModelParameters(
            num_nodes=self.cluster.num_nodes,
            fanout=max(1.0, self.statistics.fanout(partner, column)),
            partner_pages=max(1, self.cluster.relation_pages(partner)),
            memory_pages=self.cluster.layout.memory_pages,
            costs=self.cluster.ledger.params,
        )

    # ------------------------------------------------------------ verdict

    def advise(self, profile: WorkloadProfile) -> WorkloadVerdict:
        base = self.base_join_cost()
        scan = self.view_scan_cost()
        probe = self.pinned_lookup_cost()
        query_without = (profile.full_queries + profile.pinned_lookups) * base
        query_with = profile.full_queries * scan + profile.pinned_lookups * probe
        per_method = {
            method.value: profile.update_transactions
            * self.maintenance_cost_per_txn(method, profile.tuples_per_update)
            for method in (
                MaintenanceMethod.NAIVE,
                MaintenanceMethod.AUXILIARY,
                MaintenanceMethod.GLOBAL_INDEX,
            )
        }
        best_name = min(per_method, key=per_method.get)
        maintenance = per_method[best_name]
        net = query_without - query_with - maintenance
        if net <= 0:
            return WorkloadVerdict(
                materialize=False,
                method=None,
                net_benefit_ios=net,
                query_cost_without_view=query_without,
                query_cost_with_view=query_with,
                maintenance_cost=maintenance,
                per_method_maintenance=per_method,
            )
        return WorkloadVerdict(
            materialize=True,
            method=MaintenanceMethod(best_name),
            net_benefit_ios=net,
            query_cost_without_view=query_without,
            query_cost_with_view=query_with,
            maintenance_cost=maintenance,
            per_method_maintenance=per_method,
        )

