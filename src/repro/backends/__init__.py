"""SQLite-partition backend: the stand-in for the paper's commercial
parallel RDBMS (NCR Teradata)."""

from .sqlite_cluster import (
    ParallelResult,
    SQLiteCluster,
    SQLiteNode,
    SQLiteTableInfo,
)
from .sqlite_maintenance import (
    JV1_SELECT,
    JV2_SELECT,
    StepTiming,
    TeradataStyleExperiment,
)

__all__ = [
    "SQLiteCluster",
    "SQLiteNode",
    "SQLiteTableInfo",
    "ParallelResult",
    "TeradataStyleExperiment",
    "StepTiming",
    "JV1_SELECT",
    "JV2_SELECT",
]
