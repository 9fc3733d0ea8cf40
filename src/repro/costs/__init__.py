"""Cost accounting in the paper's units (SEND/SEARCH/FETCH/INSERT)."""

from .model import CostParameters, NETWORK_AWARE_COSTS, Op, PAPER_COSTS, Tag
from .ledger import CostLedger, CostSnapshot, CostWindow
from .report import ascii_table, format_snapshot, tags_legend

__all__ = [
    "CostParameters",
    "Op",
    "Tag",
    "PAPER_COSTS",
    "NETWORK_AWARE_COSTS",
    "CostLedger",
    "CostSnapshot",
    "CostWindow",
    "ascii_table",
    "format_snapshot",
    "tags_legend",
]
