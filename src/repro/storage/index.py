"""Local (single-node) indexes over heap fragments.

The paper distinguishes *clustered* indexes — the fragment is physically
ordered on the indexed attribute, so all tuples matching one key sit on the
leaf page the search lands on — from *non-clustered* ones, where each match
costs a separate FETCH.  The index itself is a hash-shaped map from key to
local rowids; ordered access (for sort-merge joins) is provided on demand.

Teradata-style constraint honoured by the cluster layer: a fragment can be
clustered on at most one attribute.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from .heap import HeapTable
from .schema import Row


class IndexError_(KeyError):
    """Raised on index maintenance errors (named to avoid the builtin)."""


class RowObserver(Protocol):
    """What an :class:`IndexedHeap` keeps in lockstep with its rows.

    :class:`LocalIndex` is the indexed case; anything else that must see
    every physical write of a fragment (the planner's distinct-value
    counters) joins :attr:`IndexedHeap.observers` and gets the same two
    calls from the same four mutation entry points — insert, bulk insert,
    delete, and the rollback path's restore.
    """

    def on_insert(self, rowid: int, row: Row) -> None: ...

    def on_delete(self, rowid: int, row: Row) -> None: ...


class LocalIndex:
    """An index on one column of one node's heap fragment."""

    def __init__(self, table: HeapTable, column: str, clustered: bool = False) -> None:
        self.table = table
        self.column = column
        self.clustered = clustered
        self._position = table.schema.index_of(column)
        self._entries: Dict[object, List[int]] = {}
        for rowid, row in table.scan():
            self._entries.setdefault(row[self._position], []).append(rowid)

    def __len__(self) -> int:
        return sum(len(rowids) for rowids in self._entries.values())

    def key_of(self, row: Row) -> object:
        return row[self._position]

    def on_insert(self, rowid: int, row: Row) -> None:
        self._entries.setdefault(row[self._position], []).append(rowid)

    def on_delete(self, rowid: int, row: Row) -> None:
        key = row[self._position]
        rowids = self._entries.get(key)
        if not rowids or rowid not in rowids:
            raise IndexError_(
                f"index on {self.table.schema.name}.{self.column} has no "
                f"entry for rowid {rowid} under key {key!r}"
            )
        rowids.remove(rowid)
        if not rowids:
            del self._entries[key]

    def search(self, key: object) -> List[int]:
        """Local rowids of tuples whose indexed column equals ``key``."""
        return list(self._entries.get(key, ()))

    def lookup_rows(self, key: object) -> List[Row]:
        """Matching rows themselves (search + fetch)."""
        return [self.table.fetch(rowid) for rowid in self.search(key)]

    def keys(self) -> Iterator[object]:
        return iter(self._entries.keys())

    def distinct_keys(self) -> int:
        return len(self._entries)

    def sorted_items(self) -> List[Tuple[object, List[int]]]:
        """(key, rowids) pairs in key order — the sorted run a sort-merge
        join consumes.  Building it models the sort; callers charge the sort
        cost through the ledger."""
        return sorted(self._entries.items(), key=lambda item: item[0])  # type: ignore[arg-type]

    def matches_per_key_fit_one_page(self, key: object) -> bool:
        """Whether all matches for ``key`` co-reside on one page.

        True by construction for clustered indexes under the paper's
        assumption (5)/(7); used by the cost layer to decide whether fetches
        are free.
        """
        if not self.clustered:
            return False
        return len(self._entries.get(key, ())) <= self.table.layout.tuples_per_page


class IndexedHeap:
    """A heap fragment plus the set of indexes maintained over it.

    Keeps heap and indexes in lockstep; the cluster's node object wraps one
    of these per stored fragment.
    """

    def __init__(self, table: HeapTable) -> None:
        self.table = table
        self.indexes: Dict[str, LocalIndex] = {}
        #: Non-index :class:`RowObserver`s, notified after the indexes.
        self.observers: List[RowObserver] = []

    def create_index(self, column: str, clustered: bool = False) -> LocalIndex:
        if clustered and any(ix.clustered for ix in self.indexes.values()):
            existing = next(c for c, ix in self.indexes.items() if ix.clustered)
            raise IndexError_(
                f"{self.table.schema.name!r} is already clustered on "
                f"{existing!r}; a fragment can be clustered on one attribute"
            )
        index = LocalIndex(self.table, column, clustered=clustered)
        self.indexes[column] = index
        return index

    def index_on(self, column: str) -> LocalIndex | None:
        return self.indexes.get(column)

    def locating_index(self) -> Optional[LocalIndex]:
        """The index a delete finds its victim through: the clustered one
        if there is one, else the first declared, else ``None``."""
        first = None
        for index in self.indexes.values():
            if index.clustered:
                return index
            if first is None:
                first = index
        return first

    def insert(self, row: Row) -> int:
        rowid = self.table.insert(row)
        for index in self.indexes.values():
            index.on_insert(rowid, row)
        for observer in self.observers:
            observer.on_insert(rowid, row)
        return rowid

    def insert_many(self, rows) -> "list[int]":
        """Bulk insert keeping every index in lockstep.

        Equivalent to N :meth:`insert` calls — same rowids, same index
        entry order — with the per-row Python overhead amortized.
        """
        rows = list(rows)
        rowids = self.table.insert_many(rows)
        for listener in (*self.indexes.values(), *self.observers):
            on_insert = listener.on_insert
            for rowid, row in zip(rowids, rows):
                on_insert(rowid, row)
        return rowids

    def delete(self, rowid: int) -> Row:
        row = self.table.delete(rowid)
        for index in self.indexes.values():
            index.on_delete(rowid, row)
        for observer in self.observers:
            observer.on_delete(rowid, row)
        return row

    def delete_many(self, rowids: Sequence[int]) -> None:
        """Undo an :meth:`insert_many`: delete its rowids, newest first
        (each index entry then leaves from the tail of its key's list)."""
        for rowid in reversed(rowids):
            self.delete(rowid)

    def restore(self, rowid: int, row: Row) -> None:
        """Undo a delete: revive the row under its original rowid and
        re-enter it into every index (rollback path; uncharged here —
        the undo log owns cost attribution)."""
        self.table.restore(rowid, row)
        for listener in (*self.indexes.values(), *self.observers):
            listener.on_insert(rowid, row)

    def locate(self, wanted: Mapping[Row, int]) -> Dict[Row, List[int]]:
        """Rowids of up to ``wanted[row]`` stored copies of each row.

        The one victim locator: copies come back in the order successive
        single-row deletes would have taken them — the locating index's
        entry order under the row's key, else heap order — so a k-th
        delete of a duplicated row still removes the k-th match.  Through
        an index this reads only the entries under the wanted rows' keys
        (each key's entry list once, however many wanted rows share it);
        without one it is a single pass over the fragment that stops as
        soon as every wanted copy is found.  A row with fewer stored copies
        than wanted maps to all of them; a row with none is absent.
        """
        located: Dict[Row, List[int]] = {}
        index = self.locating_index()
        if index is None:
            _take(self.table.scan(), wanted, located)
            return located
        by_key: Dict[object, Dict[Row, int]] = {}
        for row, count in wanted.items():
            by_key.setdefault(index.key_of(row), {})[row] = count
        fetch = self.table.fetch
        for key, rows in by_key.items():
            entries = ((rowid, fetch(rowid)) for rowid in index.search(key))
            _take(entries, rows, located)
        return located

    def delete_matching(self, row: Row) -> int:
        """Delete one stored tuple equal to ``row``; returns its rowid."""
        found = self.locate({row: 1}).get(row)
        if not found:
            raise IndexError_(
                f"no tuple equal to {row!r} in {self.table.schema.name!r}"
            )
        self.delete(found[0])
        return found[0]


def _take(
    candidates: Iterable[Tuple[int, Row]],
    wanted: Mapping[Row, int],
    located: Dict[Row, List[int]],
) -> None:
    """Collect from ``candidates`` the first ``wanted[row]`` rowids of each
    wanted row into ``located``, stopping once nothing is missing."""
    missing = sum(wanted.values())
    for rowid, stored in candidates:
        if stored in wanted:
            taken = located.setdefault(stored, [])
            if len(taken) < wanted[stored]:
                taken.append(rowid)
                missing -= 1
                if not missing:
                    return
