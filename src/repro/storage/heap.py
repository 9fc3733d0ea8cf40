"""Heap tables: the per-node storage for base-relation fragments.

A :class:`HeapTable` holds one node's fragment of a partitioned relation.
Rows get monotonically increasing *local row ids*; deletion leaves a hole
(ids are never reused), which is exactly the property global indexes need:
a (node, local rowid) pair identifies a tuple for its whole lifetime.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .pages import PageLayout, DEFAULT_LAYOUT
from .schema import Row, Schema


class RowNotFound(KeyError):
    """Raised when a local rowid does not identify a live row."""


class HeapTable:
    """An append-mostly heap of rows with stable local row ids."""

    def __init__(self, schema: Schema, layout: PageLayout = DEFAULT_LAYOUT) -> None:
        self.schema = schema
        self.layout = layout
        self._rows: Dict[int, Row] = {}
        self._next_rowid = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def insert(self, row: Row) -> int:
        """Insert ``row``; returns its local rowid."""
        self.schema.check_row(row)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        return rowid

    def insert_many(self, rows) -> List[int]:
        """Bulk insert; returns the local rowids in input order.

        Semantically identical to N :meth:`insert` calls (same rowids, same
        validation) but performs one dict update instead of N — the heap
        half of the batched execution engine's bulk-apply path.
        """
        rows = list(rows)
        check = self.schema.check_row
        for row in rows:
            check(row)
        first = self._next_rowid
        rowids = list(range(first, first + len(rows)))
        self._rows.update(zip(rowids, rows))
        self._next_rowid = first + len(rows)
        return rowids

    def fetch(self, rowid: int) -> Row:
        """The row stored under ``rowid``."""
        try:
            return self._rows[rowid]
        except KeyError:
            raise RowNotFound(
                f"rowid {rowid} not present in {self.schema.name!r}"
            ) from None

    def delete(self, rowid: int) -> Row:
        """Delete and return the row stored under ``rowid``."""
        try:
            return self._rows.pop(rowid)
        except KeyError:
            raise RowNotFound(
                f"rowid {rowid} not present in {self.schema.name!r}"
            ) from None

    def restore(self, rowid: int, row: Row) -> None:
        """Re-insert a previously deleted row under its *original* rowid.

        Used by transactional rollback (see :mod:`repro.faults.undo`): global
        indexes identify tuples by ``(node, rowid)``, so undoing a delete must
        bring the row back under the same id — a plain :meth:`insert` would
        mint a fresh one and orphan every GI entry pointing at the old id.
        """
        if rowid in self._rows:
            raise ValueError(
                f"rowid {rowid} is still live in {self.schema.name!r}; "
                "restore() only revives deleted rows"
            )
        self.schema.check_row(row)
        self._rows[rowid] = row
        if rowid >= self._next_rowid:
            self._next_rowid = rowid + 1

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Iterate (rowid, row) pairs in insertion order."""
        return iter(self._rows.items())

    def rows(self) -> List[Row]:
        """A snapshot list of all live rows."""
        return list(self._rows.values())

    @property
    def num_pages(self) -> int:
        """Pages occupied by this fragment (dense-packing approximation)."""
        return self.layout.pages_for_tuples(len(self._rows))
