"""The paper's cost units.

Section 3.1.1 models maintenance cost with four primitive operations:

* ``SEND``   — one network message, node to node, size-independent;
* ``SEARCH`` — one index probe at one node;
* ``FETCH``  — fetching one tuple reached through a non-clustered access
  path (clustered accesses find all matches on the landing page, free);
* ``INSERT`` — inserting a tuple into any table.

For the I/O-based figures the paper fixes SEARCH = 1 I/O, FETCH = 1 I/O,
INSERT = 2 I/Os and treats SEND as negligible against I/O ("the time spent
on SEND is much smaller").  Those are the defaults here; every figure can be
re-run under different weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class _Member(enum.Enum):
    """An enum whose members hash at C level.

    :class:`enum.Enum` hashes through a Python-level ``__hash__`` (the hash
    of the member's name), and every ledger cell key holds an :class:`Op`
    and a :class:`Tag` — two interpreted calls per
    :meth:`~repro.costs.CostLedger.charge`.  Members are singletons compared
    by identity (they unpickle to the same object in a worker), so
    ``object.__hash__`` is an equally valid hash; every report that walks
    cells already sorts them by ``(node, op.name, tag.name)``.
    """

    __hash__ = object.__hash__


class Op(_Member):
    """Primitive accounted operations."""

    SEND = "send"
    SEARCH = "search"
    FETCH = "fetch"
    INSERT = "insert"
    SCAN_PAGE = "scan_page"  # one page of a sequential scan (sort-merge regime)
    SORT_PAGE = "sort_page"  # one page-I/O of external sorting
    BACKOFF = "backoff"  # one retry backoff slot waited at the sender


class Tag(_Member):
    """Who an operation is charged to.

    The paper's TW deliberately *omits* costs common to all three methods —
    updating the base relation and inserting the final tuples into the view —
    and counts only the differential maintenance work.  Tagging lets the
    ledger report either.
    """

    BASE = "base"          # updating the base relation itself
    MAINTAIN = "maintain"  # the differential work the paper's TW measures
    VIEW = "view"          # applying the computed delta to the view
    QUERY = "query"        # ad-hoc reads outside maintenance
    MIGRATE = "migrate"    # topology-change data movement (join/leave/failover)
    REPLICA = "replica"    # keeping K-1 fragment replicas in sync


@dataclass(frozen=True)
class CostParameters:
    """I/O weight of each primitive operation."""

    send_ios: float = 0.0
    search_ios: float = 1.0
    fetch_ios: float = 1.0
    insert_ios: float = 2.0
    scan_page_ios: float = 1.0
    sort_page_ios: float = 1.0
    backoff_slot_ios: float = 0.0

    def weight(self, op: Op) -> float:
        return {
            Op.SEND: self.send_ios,
            Op.SEARCH: self.search_ios,
            Op.FETCH: self.fetch_ios,
            Op.INSERT: self.insert_ios,
            Op.SCAN_PAGE: self.scan_page_ios,
            Op.SORT_PAGE: self.sort_page_ios,
            Op.BACKOFF: self.backoff_slot_ios,
        }[op]


#: The weights under which the paper draws Figures 7-13.
PAPER_COSTS = CostParameters()

#: Weights that also bill network messages, for sensitivity studies.
NETWORK_AWARE_COSTS = CostParameters(send_ios=0.1)
