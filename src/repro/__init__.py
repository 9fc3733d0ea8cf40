"""repro — a reproduction of Luo, Naughton, Ellmann & Watzke,
"A Comparison of Three Methods for Join View Maintenance in Parallel
RDBMS" (ICDE 2003).

The library provides:

* a shared-nothing parallel RDBMS substrate with the paper's cost
  accounting (:mod:`repro.cluster`, :mod:`repro.storage`,
  :mod:`repro.costs`);
* the three join-view maintenance methods — naive, auxiliary relation,
  global index — for two-way and multi-way views (:mod:`repro.core`);
* the paper's analytical model in closed form (:mod:`repro.model`);
* TPC-R-style workload generators (:mod:`repro.workloads`);
* a SQLite-partition backend standing in for the commercial parallel
  RDBMS of the paper's validation experiments (:mod:`repro.backends`);
* an experiment harness regenerating every table and figure as modeled
  I/O counts (:mod:`repro.bench` plus the ``benchmarks/`` tree); wall-clock
  speed is measured end to end by ``benchmarks/e2e/run.py``;
* span tracing, metrics and a seeded load driver (:mod:`repro.obs`).

Quickstart::

    from repro import Cluster, HashPartitioning, Schema, two_way_view

    cluster = Cluster(num_nodes=8)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d"), partitioned_on="b")
    view = cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d",
                     partitioning=HashPartitioning("e")),
        method="auxiliary",
    )
    report = cluster.insert("A", [(1, 100, "x")])
    print(report.maintenance_workload())
"""

from .storage import Column, PageLayout, Row, Schema
from .costs import (
    CostLedger,
    CostParameters,
    CostSnapshot,
    Op,
    PAPER_COSTS,
    Tag,
)
from .cluster import (
    Cluster,
    HashPartitioning,
    RoundRobinPartitioning,
    Transaction,
    TransactionReport,
)
from .core import (
    JoinCondition,
    JoinStrategy,
    JoinViewDefinition,
    MaintenanceMethod,
    MethodAdvisor,
    define_join_view,
    recompute_view,
    two_way_view,
)
from .faults import (
    ConsistencyAuditor,
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    attach_faults,
    detach_faults,
)
from .model import MethodVariant, ModelParameters, paper_scenario

__version__ = "1.0.0"

__all__ = [
    "Schema",
    "Column",
    "Row",
    "PageLayout",
    "CostParameters",
    "CostLedger",
    "CostSnapshot",
    "Op",
    "Tag",
    "PAPER_COSTS",
    "Cluster",
    "HashPartitioning",
    "RoundRobinPartitioning",
    "Transaction",
    "TransactionReport",
    "JoinViewDefinition",
    "JoinCondition",
    "two_way_view",
    "MaintenanceMethod",
    "JoinStrategy",
    "MethodAdvisor",
    "define_join_view",
    "recompute_view",
    "MethodVariant",
    "ModelParameters",
    "paper_scenario",
    "FaultPlan",
    "FaultInjector",
    "RecoveryPolicy",
    "ConsistencyAuditor",
    "attach_faults",
    "detach_faults",
    "__version__",
]
