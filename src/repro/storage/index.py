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

from operator import itemgetter
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
    Union,
)

from .entries import EntryStore
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
        if type(self).key_of is LocalIndex.key_of:
            # Same result as the method, without a Python frame per row.
            self.key_of = itemgetter(self._position)  # type: ignore[method-assign]
        self._entries = EntryStore()
        rows = dict(table.scan())
        self.on_insert_many(rows.keys(), rows.values())

    def __len__(self) -> int:
        return self._entries.total()

    def key_of(self, row: Row) -> object:
        return row[self._position]

    def on_insert(self, rowid: int, row: Row) -> None:
        self._entries.add(self.key_of(row), rowid)

    def on_insert_many(self, rowids: Iterable[int], rows: Iterable[Row]) -> None:
        """:meth:`on_insert` each ``(rowid, row)`` pair, in order."""
        self._entries.add_many(zip(map(self.key_of, rows), rowids))

    def on_delete(self, rowid: int, row: Row) -> None:
        key = self.key_of(row)
        try:
            self._entries.remove(key, rowid)
        except KeyError:
            raise IndexError_(
                f"index on {self.table.schema.name}.{self.column} has no "
                f"entry for rowid {rowid} under key {key!r}"
            ) from None

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
        items = sorted(self._entries.items(), key=lambda item: item[0])  # type: ignore[arg-type]
        return [(key, list(rowids)) for key, rowids in items]

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
        #: Row -> rowid of its one stored copy, or the rowids of several
        #: copies in heap order: how :meth:`locate` finds victims when no
        #: index can.  Built by the first such locate, dropped when an
        #: index is declared; ``None`` until then.  Not an index — it
        #: carries no SEARCH charge and ``locating_index()`` ignores it.
        self._locator: Optional[Dict[Row, Union[int, List[int]]]] = None

    def create_index(self, column: str, clustered: bool = False) -> LocalIndex:
        if clustered and any(ix.clustered for ix in self.indexes.values()):
            existing = next(c for c, ix in self.indexes.items() if ix.clustered)
            raise IndexError_(
                f"{self.table.schema.name!r} is already clustered on "
                f"{existing!r}; a fragment can be clustered on one attribute"
            )
        index = LocalIndex(self.table, column, clustered=clustered)
        self.indexes[column] = index
        self._locator = None
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
        if self._locator is not None:
            _locator_add(self._locator, rowid, row)
        return rowid

    def insert_many(self, rows) -> "list[int]":
        """Bulk insert keeping every index in lockstep.

        Equivalent to N :meth:`insert` calls — same rowids, same index
        entry order — with the per-row Python overhead amortized.
        """
        rows = list(rows)
        rowids = self.table.insert_many(rows)
        for index in self.indexes.values():
            index.on_insert_many(rowids, rows)
        for observer in self.observers:
            on_insert = observer.on_insert
            for rowid, row in zip(rowids, rows):
                on_insert(rowid, row)
        locator = self._locator
        if locator is not None:
            for rowid, row in zip(rowids, rows):
                _locator_add(locator, rowid, row)
        return rowids

    def delete(self, rowid: int) -> Row:
        row = self.table.delete(rowid)
        for index in self.indexes.values():
            index.on_delete(rowid, row)
        for observer in self.observers:
            observer.on_delete(rowid, row)
        locator = self._locator
        if locator is not None:
            held = locator[row]
            if isinstance(held, list):
                held.remove(rowid)
                if len(held) == 1:
                    locator[row] = held[0]
            else:
                del locator[row]
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
        if self._locator is not None:
            _locator_add(self._locator, rowid, row)

    def locate(self, wanted: Mapping[Row, int]) -> Dict[Row, List[int]]:
        """Rowids of up to ``wanted[row]`` stored copies of each row.

        The one victim locator: copies come back in the order successive
        single-row deletes would have taken them — the locating index's
        entry order under the row's key, else heap order — so a k-th
        delete of a duplicated row still removes the k-th match.  Through
        an index this reads only the entries under the wanted rows' keys
        (each key's entry list once, however many wanted rows share it);
        without one it reads the row locator, built by one pass over the
        fragment on the first such call.  A row with fewer stored copies
        than wanted maps to all of them; a row with none is absent.
        """
        located: Dict[Row, List[int]] = {}
        index = self.locating_index()
        if index is None:
            locator = self._locator
            if locator is None:
                locator = self._locator = {}
                for rowid, row in self.table.scan():
                    _locator_add(locator, rowid, row)
            for row, count in wanted.items():
                held = locator.get(row)
                if held is not None:
                    located[row] = held[:count] if isinstance(held, list) else [held]
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


def _locator_add(
    locator: Dict[Row, Union[int, List[int]]], rowid: int, row: Row
) -> None:
    """Enter ``rowid`` at the tail of ``row``'s copies: a lone copy is a
    bare int, a second one turns it into a list."""
    held = locator.setdefault(row, rowid)
    if isinstance(held, list):
        held.append(rowid)
    elif held != rowid:
        locator[row] = [held, rowid]


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
