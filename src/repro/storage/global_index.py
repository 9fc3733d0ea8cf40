"""Global indexes.

A global index on ``R.c`` maps each value of ``c`` to the *global row ids*
of all tuples of ``R`` holding that value, where a global row id is a
``(node, local rowid)`` pair (paper §2.1.3).  The index itself is hash
partitioned on ``c`` across the same L nodes, so probing it for one key
touches exactly one node.

A global index is *distributed clustered* when the base relation's fragments
are physically clustered on ``c`` at every node — then all of a node's
matches for one key sit on one page and cost one FETCH; otherwise each match
costs its own FETCH.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Sequence, Tuple

from .entries import EntryStore


@dataclass(frozen=True, order=True)
class GlobalRowId:
    """Identifies one tuple cluster-wide: the node it lives on plus its
    local rowid within that node's fragment."""

    node: int
    rowid: int


class GlobalIndexPartition:
    """One node's partition of a global index: the entries whose key hashes
    to this node."""

    def __init__(self, relation_name: str, column: str) -> None:
        self.relation_name = relation_name
        self.column = column
        self._entries = EntryStore()

    def __len__(self) -> int:
        return self._entries.total()

    def insert(self, key: object, grid: GlobalRowId) -> None:
        self._entries.add(key, grid)

    def insert_many(self, entries: Iterable[Tuple[object, GlobalRowId]]) -> None:
        """Bulk insert of ``(key, grid)`` pairs, order-preserving per key."""
        self._entries.add_many(entries)

    def delete(self, key: object, grid: GlobalRowId) -> None:
        try:
            self._entries.remove(key, grid)
        except KeyError:
            raise KeyError(
                f"global index on {self.relation_name}.{self.column}: "
                f"no entry {grid} under key {key!r}"
            ) from None

    def delete_many(self, entries: Sequence[Tuple[object, GlobalRowId]]) -> None:
        """Undo an :meth:`insert_many`: delete its entries, newest first."""
        for key, grid in reversed(entries):
            self.delete(key, grid)

    def search(self, key: object) -> List[GlobalRowId]:
        """All global row ids of base tuples whose column equals ``key``."""
        return list(self._entries.get(key, ()))

    def search_grouped(self, key: object) -> Dict[int, List[GlobalRowId]]:
        """Matches for ``key`` grouped by the node the tuples reside on.

        The grouping determines K — the number of nodes the maintenance
        step must visit for this key.
        """
        grouped: Dict[int, List[GlobalRowId]] = {}
        for grid in self._entries.get(key, ()):
            grouped.setdefault(grid.node, []).append(grid)
        return grouped

    def keys(self) -> Iterable[object]:
        return self._entries.keys()

    def distinct_keys(self) -> int:
        return len(self._entries)

    def items(self) -> Iterable[Tuple[object, Collection[GlobalRowId]]]:
        """``(key, grids)`` pairs; each ``grids`` iterates in entry order."""
        return self._entries.items()

    def entries(self) -> List[Tuple[object, GlobalRowId]]:
        """Flattened ``(key, grid)`` pairs — the auditor's unit of compare."""
        return [
            (key, grid) for key, grids in self._entries.items() for grid in grids
        ]

    def clear(self) -> None:
        """Drop every entry (used by naive-recomputation repair)."""
        self._entries.clear()
