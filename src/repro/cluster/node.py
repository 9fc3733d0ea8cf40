"""A data-server node: local fragments, local indexes, GI partitions.

A node knows nothing about partitioning or maintenance policy — it stores
what the cluster hands it and charges the operations it performs.  All cost
charging for node-local work happens here so the maintainers cannot forget
to bill an access path.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..costs import CostLedger, Op, Tag
from ..storage import (
    GlobalIndexPartition,
    GlobalRowId,
    HeapTable,
    IndexedHeap,
    LocalIndex,
    PageLayout,
    Row,
    Schema,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.recovery import FaultController
    from .membership import Replicator


class Node:
    """One shared-nothing data server."""

    __slots__ = (
        "node_id", "ledger", "layout", "_fragments", "_gi_partitions", "faults",
        "_replicas", "replicator",
    )

    def __init__(self, node_id: int, ledger: CostLedger, layout: PageLayout) -> None:
        self.node_id = node_id
        self.ledger = ledger
        self.layout = layout
        self._fragments: Dict[str, IndexedHeap] = {}
        self._gi_partitions: Dict[str, GlobalIndexPartition] = {}
        #: Fault hooks; installed by :func:`repro.faults.attach_faults`.
        #: ``None`` on the fault-free path — the guards below then cost one
        #: predicate each and charge nothing, keeping seed behavior exact.
        self.faults: Optional["FaultController"] = None
        #: Replica copies of *other* nodes' fragments hosted here, keyed
        #: ``(owner_node_id, fragment_name)``.  Content bags, not heaps: a
        #: replica serves reads and failover restores, never index probes.
        self._replicas: Dict[Tuple[int, str], Counter] = {}
        #: Replication hooks; installed by ``Cluster.enable_replication``.
        #: ``None`` (one predicate per write, charging nothing) otherwise.
        self.replicator: Optional["Replicator"] = None

    # ---------------------------------------------------------- fault hooks

    def _guard(self, what: str) -> None:
        """Refuse work while this node is crashed (fault mode only)."""
        if self.faults is not None:
            self.faults.guard_node(self.node_id, what)

    def _probe_faults(self, what: str, tag: Tag) -> None:
        """Model transient probe failures: each wasted attempt costs the
        SEARCH it burned; exhausting the retry budget raises
        :class:`~repro.faults.errors.ProbeFailure`."""
        if self.faults is None:
            return
        wasted = self.faults.wasted_probe_attempts(self.node_id, what)
        if wasted:
            self.ledger.charge(self.node_id, Op.SEARCH, tag, count=wasted)

    # ------------------------------------------------------------------ DDL

    def create_fragment(self, schema: Schema) -> IndexedHeap:
        if schema.name in self._fragments:
            raise ValueError(f"node {self.node_id} already stores {schema.name!r}")
        fragment = IndexedHeap(HeapTable(schema, self.layout))
        self._fragments[schema.name] = fragment
        return fragment

    def drop_fragment(self, name: str) -> None:
        if name not in self._fragments:
            raise KeyError(
                f"node {self.node_id} stores no fragment of {name!r}"
            )
        del self._fragments[name]

    def fragment(self, name: str) -> IndexedHeap:
        try:
            return self._fragments[name]
        except KeyError:
            raise KeyError(
                f"node {self.node_id} stores no fragment of {name!r}"
            ) from None

    def has_fragment(self, name: str) -> bool:
        return name in self._fragments

    def create_local_index(
        self, name: str, column: str, clustered: bool = False
    ) -> LocalIndex:
        return self.fragment(name).create_index(column, clustered=clustered)

    def create_gi_partition(self, gi_name: str, base: str, column: str) -> GlobalIndexPartition:
        if gi_name in self._gi_partitions:
            raise ValueError(f"node {self.node_id} already holds GI {gi_name!r}")
        partition = GlobalIndexPartition(base, column)
        self._gi_partitions[gi_name] = partition
        return partition

    def drop_gi_partition(self, gi_name: str) -> None:
        if gi_name not in self._gi_partitions:
            raise KeyError(
                f"node {self.node_id} holds no partition of GI {gi_name!r}"
            )
        del self._gi_partitions[gi_name]

    def gi_partition(self, gi_name: str) -> GlobalIndexPartition:
        try:
            return self._gi_partitions[gi_name]
        except KeyError:
            raise KeyError(
                f"node {self.node_id} holds no partition of GI {gi_name!r}"
            ) from None

    # ----------------------------------------------------------------- DML

    def insert(self, name: str, row: Row, tag: Tag) -> int:
        """Insert into the local fragment; bills one INSERT."""
        self._guard(f"insert into {name!r}")
        rowid = self.fragment(name).insert(row)
        self.ledger.charge(self.node_id, Op.INSERT, tag)
        if self.replicator is not None:
            self.replicator.on_write(self.node_id, name, "ins", [row], tag)
        return rowid

    def insert_many(self, name: str, rows: List[Row], tag: Tag) -> List[int]:
        """Bulk insert into the local fragment; bills one INSERT per row.

        Charge-equivalent to N :meth:`insert` calls (the ledger cell receives
        the same sum) with one charge call and one heap update.
        """
        if not rows:
            return []
        self._guard(f"insert into {name!r}")
        rowids = self.fragment(name).insert_many(rows)
        self.ledger.charge(self.node_id, Op.INSERT, tag, count=len(rows))
        if self.replicator is not None:
            self.replicator.on_write(self.node_id, name, "ins", rows, tag)
        return rowids

    def delete_matching(
        self, name: str, row: Row, tag: Tag, rowid: Optional[int] = None
    ) -> int:
        """Delete one stored tuple equal to ``row``.

        Billed as one INSERT-weight write (the model prices all single-tuple
        table mutations identically) plus a SEARCH if the fragment has an
        index to locate it through.  A caller that already located the
        victim (statement validation does, for every base delete) passes
        its ``rowid``; the charges are the same, only the search is not
        repeated.
        """
        self._guard(f"delete from {name!r}")
        fragment = self.fragment(name)
        if fragment.locating_index() is not None:
            self.ledger.charge(self.node_id, Op.SEARCH, tag)
        if rowid is None:
            found = fragment.locate({row: 1}).get(row)
            if not found:
                raise KeyError(
                    f"no tuple equal to {row!r} in {name!r} at node {self.node_id}"
                )
            rowid = found[0]
        fragment.delete(rowid)
        self.ledger.charge(self.node_id, Op.INSERT, tag)
        if self.replicator is not None:
            self.replicator.on_write(self.node_id, name, "del", [row], tag)
        return rowid

    def delete_by_rowid(self, name: str, rowid: int, tag: Tag) -> Row:
        self._guard(f"delete from {name!r}")
        row = self.fragment(name).delete(rowid)
        self.ledger.charge(self.node_id, Op.INSERT, tag)
        if self.replicator is not None:
            self.replicator.on_write(self.node_id, name, "del", [row], tag)
        return row

    # ------------------------------------------------------------- replicas

    def replica_bag(self, owner: int, name: str) -> Counter:
        """The (live) content bag replicating ``owner``'s ``name`` fragment
        here; created empty on first touch."""
        slot = (owner, name)
        bag = self._replicas.get(slot)
        if bag is None:
            bag = self._replicas[slot] = Counter()
        return bag

    def drop_replica(self, owner: int, name: str) -> None:
        self._replicas.pop((owner, name), None)

    def replica_slots(self) -> List[Tuple[int, str]]:
        return sorted(self._replicas)

    def replica_rows(self, owner: int, name: str) -> List[Row]:
        """The replicated rows, expanded from the bag in deterministic
        (repr-sorted) order — failover restores iterate this."""
        bag = self._replicas.get((owner, name))
        if bag is None:
            return []
        return sorted(bag.elements(), key=repr)

    def replica_mirror(
        self, owner: int, name: str, action: str, rows: Sequence[Row]
    ) -> None:
        """Apply a replica mutation without guard or charge (bookkeeping:
        the coordinator's replay mirror and undo reversal use this)."""
        bag = self.replica_bag(owner, name)
        if action == "ins":
            for row in rows:
                bag[row] += 1
        elif action == "del":
            for row in rows:
                bag[row] -= 1
                if bag[row] <= 0:
                    del bag[row]
        else:
            raise ValueError(f"unknown replica action {action!r}")

    def replica_apply(
        self, owner: int, name: str, action: str, rows: Sequence[Row], tag: Tag
    ) -> None:
        """Apply a replica mutation here; bills one INSERT-weight write per
        row (the replica copy is a real table write in the model)."""
        if not rows:
            return
        self._guard(f"replica apply for {name!r} (owner {owner})")
        self.replica_mirror(owner, name, action, rows)
        self.ledger.charge(self.node_id, Op.INSERT, tag, count=len(rows))

    def remap_replica_owners(self, mapping: Dict[int, int]) -> None:
        """Renumber replica owner ids after a membership change; replicas
        of owners absent from ``mapping`` (the departed node) are dropped."""
        self._replicas = {
            (mapping[owner], name): bag
            for (owner, name), bag in self._replicas.items()
            if owner in mapping
        }

    # -------------------------------------------------------- access paths

    def index_probe(
        self,
        name: str,
        column: str,
        key: object,
        tag: Tag,
        fetch_rows: bool = True,
    ) -> List[Row]:
        """Probe a local index: 1 SEARCH, plus per-match FETCHes when the
        index is non-clustered (clustered matches share the landing page and
        are free — paper assumptions 5 and 7)."""
        self._guard(f"index probe of {name}.{column}")
        fragment = self.fragment(name)
        index = fragment.index_on(column)
        if index is None:
            raise KeyError(f"{name!r} has no index on {column!r} at node {self.node_id}")
        self._probe_faults(f"{name}.{column}", tag)
        self.ledger.charge(self.node_id, Op.SEARCH, tag)
        rowids = index.search(key)
        if not rowids or not fetch_rows:
            return []
        if not index.clustered:
            self.ledger.charge(self.node_id, Op.FETCH, tag, count=len(rowids))
        return [fragment.table.fetch(rowid) for rowid in rowids]

    def charge_index_probe(
        self, name: str, column: str, num_matches: int, tag: Tag, times: int = 1
    ) -> None:
        """Charge the modeled cost of ``times`` repeat probes of one key
        without re-executing them (the probe-memo path).

        Exactly what ``times`` :meth:`index_probe` calls for a key with
        ``num_matches`` matches would charge: one SEARCH each, plus one
        FETCH per match when the index is non-clustered.  Never called with
        a fault controller attached (the batched engine falls back to the
        per-tuple reference path there), so no probe-fault consultation is
        needed — but the guard is kept for defense in depth.
        """
        if times <= 0:
            return
        self._guard(f"index probe of {name}.{column}")
        fragment = self.fragment(name)
        index = fragment.index_on(column)
        if index is None:
            raise KeyError(f"{name!r} has no index on {column!r} at node {self.node_id}")
        self.ledger.charge(self.node_id, Op.SEARCH, tag, count=times)
        if num_matches and not index.clustered:
            self.ledger.charge(
                self.node_id, Op.FETCH, tag, count=times * num_matches
            )

    def charge_gi_probe(self, gi_name: str, tag: Tag, times: int = 1) -> None:
        """Charge ``times`` repeat GI probes (1 SEARCH each, memoized rows)."""
        if times <= 0:
            return
        self._guard(f"probe of GI {gi_name!r}")
        self.gi_partition(gi_name)  # validate existence, as gi_probe would
        self.ledger.charge(self.node_id, Op.SEARCH, tag, count=times)

    def charge_fetch(self, name: str, units: int, tag: Tag, times: int = 1) -> None:
        """Charge ``times`` repeat rowid-fetch batches of ``units`` FETCHes
        each (the GI landing-node cost of memoized keys)."""
        if times <= 0 or units <= 0:
            return
        self._guard(f"fetch from {name!r}")
        self.ledger.charge(self.node_id, Op.FETCH, tag, count=times * units)

    def fetch_by_rowids(
        self,
        name: str,
        rowids: List[int],
        tag: Tag,
        clustered_on_page: bool = False,
    ) -> List[Row]:
        """Fetch tuples by local rowid (the GI method's landing-node work).

        ``clustered_on_page`` models a *distributed clustered* GI: the
        matches at this node share one page, so the whole batch costs one
        FETCH; otherwise each rowid costs its own FETCH.
        """
        if not rowids:
            return []
        self._guard(f"fetch from {name!r}")
        count = 1 if clustered_on_page else len(rowids)
        self.ledger.charge(self.node_id, Op.FETCH, tag, count=count)
        fragment = self.fragment(name)
        return [fragment.table.fetch(rowid) for rowid in rowids]

    def gi_probe(self, gi_name: str, key: object, tag: Tag) -> Dict[int, List[GlobalRowId]]:
        """Probe a GI partition: 1 SEARCH; entry fetch is free (assumption 6)."""
        self._guard(f"probe of GI {gi_name!r}")
        self._probe_faults(f"GI {gi_name}", tag)
        self.ledger.charge(self.node_id, Op.SEARCH, tag)
        return self.gi_partition(gi_name).search_grouped(key)

    def gi_insert(self, gi_name: str, key: object, grid: GlobalRowId, tag: Tag) -> None:
        self._guard(f"insert into GI {gi_name!r}")
        self.gi_partition(gi_name).insert(key, grid)
        self.ledger.charge(self.node_id, Op.INSERT, tag)

    def gi_delete(self, gi_name: str, key: object, grid: GlobalRowId, tag: Tag) -> None:
        self._guard(f"delete from GI {gi_name!r}")
        self.gi_partition(gi_name).delete(key, grid)
        self.ledger.charge(self.node_id, Op.INSERT, tag)

    # ----------------------------------------------------------- whole-frag

    def scan(self, name: str, tag: Optional[Tag] = None) -> List[Row]:
        """All live rows of a fragment; bills a page scan when tagged."""
        fragment = self.fragment(name)
        if tag is not None:
            self._guard(f"scan of {name!r}")
            self.ledger.charge(
                self.node_id, Op.SCAN_PAGE, tag, count=fragment.table.num_pages
            )
        return fragment.table.rows()

    def fragment_pages(self, name: str) -> int:
        return self.fragment(name).table.num_pages

    def storage_profile(self) -> List[Tuple[str, int, int]]:
        """``(name, live_tuples, heap_pages)`` for every local fragment.

        Observability's pull-based collector reads this; sorted by name so
        exports are deterministic across runs and worker counts.
        """
        return [
            (name, len(fragment.table.rows()), fragment.table.num_pages)
            for name, fragment in sorted(self._fragments.items())
        ]

