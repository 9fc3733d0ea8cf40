"""Page arithmetic.

The paper's analytical model reasons in disk pages: a relation ``B`` occupies
``|B|`` pages, each node's fragment occupies ``|B|/L`` pages, sorting a
fragment costs ``|B_i| * log_M |B_i|`` I/Os with ``M`` pages of memory.  The
in-memory engine does not persist pages, but it *accounts* in them, so the
layout (tuples per page) is a first-class parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PageLayout:
    """How many tuples fit on one page, and how much memory is available.

    ``tuples_per_page`` converts tuple counts into page counts.
    ``memory_pages`` is ``M`` in the paper: the sort fan-in for external
    merge sort and the threshold below which a fragment sorts in memory.
    """

    tuples_per_page: int = 100
    memory_pages: int = 100

    def __post_init__(self) -> None:
        if self.tuples_per_page < 1:
            raise ValueError("tuples_per_page must be >= 1")
        if self.memory_pages < 2:
            raise ValueError("memory_pages must be >= 2 (merge sort needs fan-in)")

    def pages_for_tuples(self, num_tuples: int) -> int:
        """Pages occupied by ``num_tuples`` tuples (ceiling division)."""
        if num_tuples < 0:
            raise ValueError("num_tuples must be >= 0")
        return -(-num_tuples // self.tuples_per_page)

    def sort_cost_pages(self, fragment_pages: int) -> float:
        """I/O cost of sorting a ``fragment_pages``-page fragment.

        The paper approximates external sort as ``B_i * log_M B_i`` I/Os and
        treats fragments that fit in memory as a single scan.
        """
        if fragment_pages <= 0:
            return 0.0
        if fragment_pages <= self.memory_pages:
            return float(fragment_pages)
        return fragment_pages * math.log(fragment_pages, self.memory_pages)

    def scan_cost_pages(self, fragment_pages: int) -> float:
        """I/O cost of scanning a fragment: one I/O per page."""
        return float(max(0, fragment_pages))


DEFAULT_LAYOUT = PageLayout()
