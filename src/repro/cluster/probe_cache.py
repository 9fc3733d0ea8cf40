"""Cross-statement heavy-hitter probe caching for parallel workers.

Abo-Khamis et al.'s heavy-light partitioning (PAPERS.md) motivates treating
*heavy* join keys — the ones probed over and over across statements — as a
separate regime.  PR 2's probe memo already collapses repeats *within* one
statement; this cache carries the heavy keys *across* statements: once a
key's probe frequency at a worker crosses ``threshold``, its fetched
partner rows (or GI entry groups) stay resident in that worker until a
write invalidates them.

Charging contract (the equivalence suite asserts it): a cache hit charges
**exactly what the probe would have cost** — one SEARCH, plus one FETCH per
match for non-clustered indexes, via the node's ``charge_*`` helpers — so
ledger cells stay bit-identical to both the serial batched engine and the
per-tuple reference engine.  The cache saves interpreter work (index search,
row fetch, dict grouping), never modeled I/Os.

Invalidation:

* **write-sets** — every mutating superstep command a worker executes calls
  :meth:`note_write` / :meth:`note_gi_write` before applying, dropping
  exactly the cached keys the write touches (the write-set rides in the
  superstep envelope itself: workers only ever mutate their own shard, and
  every such mutation arrives as an envelope command);
* **catalog epoch** — every superstep envelope carries the coordinator's
  catalog version; a bump (DDL) clears the cache wholesale.  DDL also
  drains the worker pool, so this is defense in depth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..storage.schema import Row

#: (node_id, fragment_name, column, key)
_IndexSlot = Tuple[int, str, str, object]
#: (node_id, gi_name, key)
_GISlot = Tuple[int, str, object]


class HeavyHitterProbeCache:
    """Per-worker cache of hot-key probe results with precise invalidation."""

    __slots__ = (
        "threshold",
        "max_entries",
        "epoch",
        "_freq",
        "_index_rows",
        "_index_positions",
        "_gi_groups",
        "_fetch_rows",
        "_fetch_slots",
        "hits",
        "misses",
        "invalidations",
        "flushed_hits",
        "flushed_misses",
        "flushed_invalidations",
        "epoch_flushes",
    )

    def __init__(self, threshold: int = 3, max_entries: int = 4096) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.max_entries = max_entries
        self.epoch: Optional[int] = None
        #: probe frequency per slot (index and GI slots share the counter map)
        self._freq: Dict[object, int] = {}
        #: cached index-probe matches per slot
        self._index_rows: Dict[_IndexSlot, List[Row]] = {}
        #: (node, fragment) -> {column: key position}; which columns of a
        #: fragment have live cached entries, for exact write invalidation
        self._index_positions: Dict[Tuple[int, str], Dict[str, int]] = {}
        #: cached GI probe results per slot (owner -> grids, insertion order)
        self._gi_groups: Dict[_GISlot, Dict[int, list]] = {}
        #: cached landing-node fetches: (node, relation, rowids) -> rows
        self._fetch_rows: Dict[Tuple[int, str, Tuple[int, ...]], List[Row]] = {}
        #: (node, relation) -> resident fetch slots of that fragment, so a
        #: write invalidates them with one dict pop instead of a scan
        self._fetch_slots: Dict[Tuple[int, str], set] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Counter totals folded away by catalog-epoch clears.  Without
        #: these, the hit/miss/invalidation history of an epoch would vanish
        #: with the entries it described; :meth:`stats` always reports
        #: all-time totals (live + flushed).
        self.flushed_hits = 0
        self.flushed_misses = 0
        self.flushed_invalidations = 0
        self.epoch_flushes = 0

    # ------------------------------------------------------------- epochs

    def check_epoch(self, catalog_version: int) -> None:
        """Clear everything when the coordinator's catalog version moved.

        The live hit/miss/invalidation counters are flushed into the
        ``flushed_*`` accumulators first, so epoch clears never lose
        statistics — they ride back to the coordinator in the next stats
        reply and surface in the metrics export.
        """
        if self.epoch != catalog_version:
            if self.epoch is not None:
                self.flush_counters()
            self.clear()
            self.epoch = catalog_version

    def flush_counters(self) -> None:
        """Fold the live counters into the flushed accumulators."""
        self.flushed_hits += self.hits
        self.flushed_misses += self.misses
        self.flushed_invalidations += self.invalidations
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.epoch_flushes += 1

    def clear(self) -> None:
        self._freq.clear()
        self._index_rows.clear()
        self._index_positions.clear()
        self._gi_groups.clear()
        self._fetch_rows.clear()
        self._fetch_slots.clear()

    # ------------------------------------------------------- index probes

    def lookup_index(
        self, node_id: int, fragment: str, column: str, key: object
    ) -> Optional[List[Row]]:
        slot = (node_id, fragment, column, key)
        rows = self._index_rows.get(slot)
        if rows is not None:
            self.hits += 1
        return rows

    def note_index_miss(
        self,
        node_id: int,
        fragment: str,
        column: str,
        key: object,
        key_position: int,
        rows: List[Row],
    ) -> None:
        """Record a live probe; promote the key to resident once hot."""
        self.misses += 1
        slot = (node_id, fragment, column, key)
        count = self._freq.get(slot, 0) + 1
        self._freq[slot] = count
        if count >= self.threshold and len(self._index_rows) < self.max_entries:
            self._index_rows[slot] = rows
            self._index_positions.setdefault((node_id, fragment), {})[
                column
            ] = key_position

    # ---------------------------------------------------------- GI probes

    def lookup_gi(self, node_id: int, gi_name: str, key: object):
        slot = (node_id, gi_name, key)
        grouped = self._gi_groups.get(slot)
        if grouped is not None:
            self.hits += 1
        return grouped

    def note_gi_miss(
        self, node_id: int, gi_name: str, key: object, grouped: Dict[int, list]
    ) -> None:
        self.misses += 1
        slot = (node_id, gi_name, key)
        count = self._freq.get(slot, 0) + 1
        self._freq[slot] = count
        if count >= self.threshold and len(self._gi_groups) < self.max_entries:
            self._gi_groups[slot] = grouped

    # ------------------------------------------------------------ fetches

    def lookup_fetch(
        self, node_id: int, relation: str, rowids: Tuple[int, ...]
    ) -> Optional[List[Row]]:
        rows = self._fetch_rows.get((node_id, relation, rowids))
        if rows is not None:
            self.hits += 1
        return rows

    def note_fetch_miss(
        self, node_id: int, relation: str, rowids: Tuple[int, ...], rows: List[Row]
    ) -> None:
        self.misses += 1
        slot = (node_id, relation, rowids)
        count = self._freq.get(slot, 0) + 1
        self._freq[slot] = count
        if count >= self.threshold and len(self._fetch_rows) < self.max_entries:
            self._fetch_rows[slot] = rows
            self._fetch_slots.setdefault((node_id, relation), set()).add(slot)

    # ------------------------------------------------------- invalidation

    def has_resident_rows(self) -> bool:
        """Whether any cached entry could need row-level invalidation.

        When this is ``False`` every :meth:`note_write` call is a no-op
        (nothing resident to drop, and frequency counters are untouched by
        writes to unpromoted fragments), so hot insert loops may skip the
        per-row calls wholesale.  Behaviour-identical, purely a fast path.
        """
        return bool(self._index_positions or self._fetch_rows)

    def note_write(self, node_id: int, fragment: str, row: Row) -> None:
        """A row of ``fragment`` at ``node_id`` is being inserted/deleted:
        drop exactly the cached probe keys whose match set this row is (or
        would now be) part of, plus any landing-fetch batches of that
        fragment (their rowid lists may now dangle)."""
        positions = self._index_positions.get((node_id, fragment))
        if positions:
            for column, position in positions.items():
                slot = (node_id, fragment, column, row[position])
                if self._index_rows.pop(slot, None) is not None:
                    self.invalidations += 1
                self._freq.pop(slot, None)
        stale = self._fetch_slots.pop((node_id, fragment), None)
        if stale:
            for slot in stale:
                del self._fetch_rows[slot]
                self._freq.pop(slot, None)
                self.invalidations += 1

    def note_gi_write(self, node_id: int, gi_name: str, key: object) -> None:
        """A GI entry under ``key`` changed at ``node_id``: drop that key."""
        slot = (node_id, gi_name, key)
        if self._gi_groups.pop(slot, None) is not None:
            self.invalidations += 1
        self._freq.pop(slot, None)

    # -------------------------------------------------------------- stats

    def stats(self) -> Dict[str, int]:
        """All-time counters (live + epoch-flushed) and resident entry counts."""
        return {
            "hits": self.hits + self.flushed_hits,
            "misses": self.misses + self.flushed_misses,
            "invalidations": self.invalidations + self.flushed_invalidations,
            "flushed_hits": self.flushed_hits,
            "flushed_misses": self.flushed_misses,
            "flushed_invalidations": self.flushed_invalidations,
            "epoch_flushes": self.epoch_flushes,
            "resident_index_keys": len(self._index_rows),
            "resident_gi_keys": len(self._gi_groups),
            "resident_fetch_batches": len(self._fetch_rows),
        }
