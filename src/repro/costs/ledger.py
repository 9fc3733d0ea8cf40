"""Per-node cost ledgers.

Every accounted operation is charged to a ``(node, Op, Tag)`` cell.  From
the cells the two metrics of the paper derive directly:

* **total workload (TW)** — the sum of weighted work over all nodes
  (paper §3.1.1); and
* **response time** — the maximum weighted work at any single node
  (paper §3.1.2), since nodes execute in parallel.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .model import CostParameters, Op, PAPER_COSTS, Tag

_Cell = Tuple[int, Op, Tag]


@dataclass
class CostSnapshot:
    """An immutable summary of charged work, queryable by op/tag/node."""

    params: CostParameters
    cells: Dict[_Cell, float] = field(default_factory=dict)

    def _selected(
        self, tags: Optional[Iterable[Tag]], ops: Optional[Iterable[Op]]
    ) -> Iterator[Tuple[int, Op, Tag, float]]:
        tag_set = set(tags) if tags is not None else None
        op_set = set(ops) if ops is not None else None
        for (node, op, tag), count in self.cells.items():
            if tag_set is not None and tag not in tag_set:
                continue
            if op_set is not None and op not in op_set:
                continue
            yield node, op, tag, count

    def op_count(self, op: Op, tags: Optional[Iterable[Tag]] = None) -> float:
        """Total number of ``op`` operations charged (optionally per tags)."""
        return sum(c for _, o, _, c in self._selected(tags, [op]) if o is op)

    def per_node_ios(self, tags: Optional[Iterable[Tag]] = None) -> Dict[int, float]:
        """Weighted I/Os charged at each node."""
        by_node: Dict[int, float] = defaultdict(float)
        for node, op, _, count in self._selected(tags, None):
            by_node[node] += count * self.params.weight(op)
        return dict(by_node)

    def total_workload(self, tags: Optional[Iterable[Tag]] = None) -> float:
        """TW: weighted I/Os summed over all nodes."""
        return sum(self.per_node_ios(tags).values())

    def response_time(self, tags: Optional[Iterable[Tag]] = None) -> float:
        """Response time: weighted I/Os at the busiest node."""
        per_node = self.per_node_ios(tags)
        return max(per_node.values()) if per_node else 0.0

    def maintenance_workload(self) -> float:
        """The paper's TW: differential maintenance work only."""
        return self.total_workload(tags=[Tag.MAINTAIN])

    def maintenance_response_time(self) -> float:
        return self.response_time(tags=[Tag.MAINTAIN])

    def op_breakdown(self, tags: Optional[Iterable[Tag]] = None) -> Dict[Op, float]:
        """Operation counts (not weighted) summed over nodes."""
        by_op: Dict[Op, float] = defaultdict(float)
        for _, op, _, count in self._selected(tags, None):
            by_op[op] += count
        return dict(by_op)

    def diff(self, other: "CostSnapshot") -> Dict[_Cell, float]:
        """Per-``(node, op, tag)`` cell deltas (``self - other``).

        Cells equal on both sides are omitted, so an empty dict means the
        snapshots are identical — the equivalence suites assert exactly
        that and print :func:`format_cell_diff` of the result when not.

        Iteration runs in sorted ``(node, op, tag)`` order: set order is
        hash-salted per process, so an unsorted walk would make the
        *insertion order* of the returned dict differ between runs —
        breaking byte-identical failure reports and any consumer that
        serializes the dict as-is (REP002).
        """
        cells: Dict[_Cell, float] = {}
        universe = set(self.cells) | set(other.cells)
        for cell in sorted(universe, key=lambda c: (c[0], c[1].name, c[2].name)):
            delta = self.cells.get(cell, 0.0) - other.cells.get(cell, 0.0)
            if delta:
                cells[cell] = delta
        return cells


class CostLedger:
    """Mutable accumulator of charged operations for one cluster."""

    def __init__(self, params: CostParameters = PAPER_COSTS) -> None:
        self.params = params
        self._cells: Dict[_Cell, float] = defaultdict(float)

    def charge(self, node: int, op: Op, tag: Tag, count: float = 1.0) -> None:
        """Charge ``count`` operations of kind ``op`` at ``node`` under ``tag``."""
        if count < 0:
            raise ValueError("cannot charge a negative operation count")
        if count:
            self._cells[(node, op, tag)] += count

    def absorb(self, deltas: "Iterable[Dict[_Cell, float]]") -> None:
        """Fold worker-ledger cell deltas into this ledger.

        Cells are commutative sums, so any fold order yields the same
        totals — the deterministic ``(node, op, tag)`` order is enforced
        anyway so that a divergence reproduces byte-for-byte run-to-run.
        """
        merged: Dict[_Cell, float] = {}
        for cells in deltas:
            for cell, count in cells.items():
                merged[cell] = merged.get(cell, 0.0) + count
        target = self._cells
        for cell in sorted(merged, key=lambda c: (c[0], c[1].name, c[2].name)):
            target[cell] += merged[cell]

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(self.params, dict(self._cells))

    def reset(self) -> None:
        self._cells.clear()

    def diff(self, other: "CostLedger | CostSnapshot") -> Dict[_Cell, float]:
        """Per-``(node, op, tag)`` cell deltas between two ledgers.

        ``self - other``; an empty dict means bit-identical charging.  Use
        :func:`format_cell_diff` to turn the result into an actionable
        failure message (which cell, whose side, how far off).
        """
        snapshot = other if isinstance(other, CostSnapshot) else other.snapshot()
        return self.snapshot().diff(snapshot)

    def diff_since(self, before: CostSnapshot) -> CostSnapshot:
        """The work charged since ``before`` was taken."""
        return CostSnapshot(self.params, _cells_since(self._cells, before.cells))

    def window(self) -> "CostWindow":
        """Open a :class:`CostWindow` on this ledger; close it after the work."""
        return CostWindow(self)

    @contextmanager
    def measure(self) -> Iterator["_Measurement"]:
        """Context manager yielding a snapshot holder for the enclosed work.

        >>> ledger = CostLedger()
        >>> with ledger.measure() as measured:
        ...     ledger.charge(0, Op.SEARCH, Tag.MAINTAIN)
        >>> measured.snapshot.total_workload()
        1.0
        """
        holder = _Measurement()
        before = self.snapshot()
        try:
            yield holder
        finally:
            holder.snapshot = self.diff_since(before)


class _Measurement:
    """Mutable holder filled by :meth:`CostLedger.measure` on exit."""

    snapshot: CostSnapshot

    def __init__(self) -> None:
        self.snapshot = CostSnapshot(PAPER_COSTS, {})


class CostWindow:
    """The work charged between :meth:`CostLedger.window` and :meth:`close`,
    subtracted only when :attr:`snapshot` is first read.

    Each end is a plain copy of the ledger's cells; the per-cell diff — the
    costly part of :meth:`CostLedger.measure` — is skipped entirely when no
    caller asks what the work cost.  Charges made after :meth:`close` are
    never included.
    """

    __slots__ = ("_ledger", "_before", "_after", "_snapshot")

    def __init__(self, ledger: CostLedger) -> None:
        self._ledger = ledger
        self._before: Dict[_Cell, float] = dict(ledger._cells)
        self._after: Dict[_Cell, float] = {}
        self._snapshot: Optional[CostSnapshot] = None

    def close(self) -> None:
        """Copy the ledger's cells as they stand now: the window's far end."""
        self._after = dict(self._ledger._cells)

    @property
    def snapshot(self) -> CostSnapshot:
        if self._snapshot is None:
            self._snapshot = CostSnapshot(
                self._ledger.params, _cells_since(self._after, self._before)
            )
            self._before = self._after = {}
        return self._snapshot


def _cells_since(
    after: Dict[_Cell, float], before: Dict[_Cell, float]
) -> Dict[_Cell, float]:
    """The cells that grew from ``before`` to ``after``, by how much."""
    cells: Dict[_Cell, float] = {}
    for cell, count in after.items():
        delta = count - before.get(cell, 0.0)
        if delta > 1e-12:
            cells[cell] = delta
    return cells


def format_cell_diff(diff: Dict[_Cell, float], limit: int = 40) -> str:
    """Human-readable per-cell delta listing for equivalence failures.

    Positive deltas mean the *left* ledger charged more.  Sorted by
    (node, op, tag) so two runs of the same failure print identically.
    """
    if not diff:
        return "ledgers identical"
    lines: List[str] = []
    ordered = sorted(
        diff.items(), key=lambda kv: (kv[0][0], kv[0][1].name, kv[0][2].name)
    )
    for (node, op, tag), delta in ordered[:limit]:
        lines.append(
            f"  node={node} op={op.value} tag={tag.value}: {delta:+g}"
        )
    if len(ordered) > limit:
        lines.append(f"  ... ({len(ordered) - limit} more cells)")
    return "\n".join(lines)
