"""The ``key -> entries`` store behind every index.

:class:`~repro.storage.index.LocalIndex` (key → local rowids),
:class:`~repro.storage.global_index.GlobalIndexPartition` (key → global
row ids) and the aggregate ``_group`` index all keep one of these.  Its
order contract (DESIGN.md, "Order contract"): a key's entries come back in
insertion order, a re-inserted (restored) entry joins the tail, and a
delete removes the one entry it names.

A key's entries are a plain list while the key is light.  A heavy key —
a Zipf hot value holds thousands — would make every delete a linear
``list.remove``, quadratic over the key's lifetime.  So a list longer than
``_PROMOTE_AFTER`` becomes an insertion-ordered dict (entry → ``None``) on
its next delete, and deletes on it are O(1).  Promotion waits for a
delete because a dict costs several times a list's memory, and most heavy
keys are only ever inserted into: promoting every key eagerly raised the
``bulk_skewed`` benchmark's peak RSS by 7.6 %.

A dict holds each entry once, but the store keeps multiplicity: an entry
inserted twice under a promoted key (a duplicated GI insert under an
unprotected recovery policy) turns the key back into a list, which holds
the duplicate in its place, and a list that holds a duplicate is never
promoted.
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: A key's list is promoted to a dict on the first delete that finds it
#: longer than this.
_PROMOTE_AFTER = 64


class EntryStore(dict):
    """``key -> entries``, each key's entries in insertion order.

    A value is a list, or for a promoted key a dict whose keys are the
    entries.  Both iterate in insertion order and have ``len``, so readers
    iterate ``store.get(key, ())`` without caring which they hold.
    """

    __slots__ = ()

    def add(self, key: object, entry: object) -> None:
        """Append ``entry`` at the tail of ``key``'s entries."""
        entries = self.get(key)
        if entries is None:
            self[key] = [entry]
        elif entries.__class__ is list:
            entries.append(entry)
        elif entry in entries:
            self[key] = [*entries, entry]  # only a list holds a duplicate
        else:
            entries[entry] = None

    def add_many(self, pairs: Iterable[Tuple[object, object]]) -> None:
        """:meth:`add` each ``(key, entry)`` pair, in order."""
        get = self.get
        for key, entry in pairs:
            entries = get(key)
            if entries is None:
                self[key] = [entry]
            elif entries.__class__ is list:
                entries.append(entry)
            else:
                self.add(key, entry)

    def remove(self, key: object, entry: object) -> None:
        """Delete one occurrence of ``entry`` under ``key`` (the oldest, if
        the key holds it twice); ``KeyError`` if there is none."""
        entries = self.get(key)
        if entries is None:
            raise KeyError(key)
        if entries.__class__ is list and len(entries) > _PROMOTE_AFTER:
            promoted = dict.fromkeys(entries)
            if len(promoted) == len(entries):
                self[key] = entries = promoted
        if entries.__class__ is dict:
            del entries[entry]
        else:
            try:
                entries.remove(entry)
            except ValueError:
                raise KeyError(entry) from None
        if not entries:
            del self[key]

    def total(self) -> int:
        """Entries across all keys, duplicates counted."""
        return sum(map(len, self.values()))
