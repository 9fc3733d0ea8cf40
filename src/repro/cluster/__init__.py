"""The shared-nothing parallel RDBMS substrate."""

from .partitioning import (
    ConsistentHashPartitioning,
    HashPartitioning,
    RoundRobinPartitioning,
    PartitioningSpec,
    stable_hash,
)
from .network import Network, NetworkStats
from .node import Node
from .catalog import (
    AuxiliaryRelationInfo,
    Catalog,
    GlobalIndexInfo,
    RelationInfo,
    ViewInfo,
)
from .cluster import Cluster
from .membership import (
    ClusterMembership,
    MembershipEvent,
    MigrationReport,
    Replicator,
    available_rows,
)
from .transactions import Transaction, TransactionReport

__all__ = [
    "Cluster",
    "Node",
    "Network",
    "NetworkStats",
    "Catalog",
    "RelationInfo",
    "AuxiliaryRelationInfo",
    "GlobalIndexInfo",
    "ViewInfo",
    "ConsistentHashPartitioning",
    "HashPartitioning",
    "RoundRobinPartitioning",
    "PartitioningSpec",
    "stable_hash",
    "ClusterMembership",
    "MembershipEvent",
    "MigrationReport",
    "Replicator",
    "available_rows",
    "Transaction",
    "TransactionReport",
]
