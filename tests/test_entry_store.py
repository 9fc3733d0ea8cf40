"""The order and multiplicity contract of the ``key -> entries`` store.

Local indexes, GI partitions and the aggregate ``_group`` index keep each
key's entries in one :class:`~repro.storage.entries.EntryStore`.  A heavy
key is promoted from a list to an insertion-ordered dict, so these tests
drive a single key across the promotion size in both directions and hold
every index kind to a plain-list model: append on insert, remove the
oldest equal entry on delete, re-append at the tail on restore.
"""

import random

import pytest

from repro import Cluster, Schema
from repro.core.aggregates import _GroupIndex
from repro.faults import ConsistencyAuditor, FaultPlan, RecoveryPolicy, attach_faults
from repro.storage.entries import _PROMOTE_AFTER
from repro.storage.global_index import GlobalIndexPartition, GlobalRowId
from repro.storage.heap import HeapTable
from repro.storage.index import IndexedHeap

KEY = 7


class _HeapKind:
    """A :class:`LocalIndex`-family index driven through its heap."""

    def __init__(self, group: bool) -> None:
        if group:
            self.heap = IndexedHeap(HeapTable(Schema.of("V", "g0_k", "_count")))
            self.index = _GroupIndex(self.heap.table, "_count")
            self.heap.indexes["_group"] = self.index
            self.key = (KEY,)
        else:
            self.heap = IndexedHeap(HeapTable(Schema.of("T", "k", "v")))
            self.index = self.heap.create_index("k")
            self.key = KEY
        self.rows = {}
        self.serial = 0

    def _row(self):
        self.serial += 1
        return (KEY, self.serial)

    def insert(self):
        row = self._row()
        rowid = self.heap.insert(row)
        self.rows[rowid] = row
        return rowid

    def insert_many(self, count):
        rows = [self._row() for _ in range(count)]
        rowids = self.heap.insert_many(rows)
        self.rows.update(zip(rowids, rows))
        return rowids

    def delete(self, entry):
        self.heap.delete(entry)

    def restore(self, entry):
        self.heap.restore(entry, self.rows[entry])

    def delete_many(self, entries):
        self.heap.delete_many(entries)

    def entries(self):
        return self.index.search(self.key)

    def store(self):
        return self.index._entries


class _GlobalKind:
    """A :class:`GlobalIndexPartition`; its entries may repeat."""

    key = KEY

    def __init__(self) -> None:
        self.partition = GlobalIndexPartition("B", "d")
        self.serial = 0

    def _grid(self):
        self.serial += 1
        return GlobalRowId(self.serial % 4, self.serial)

    def insert(self):
        grid = self._grid()
        self.partition.insert(KEY, grid)
        return grid

    def insert_many(self, count):
        grids = [self._grid() for _ in range(count)]
        self.partition.insert_many([(KEY, grid) for grid in grids])
        return grids

    def delete(self, entry):
        # A fresh equal object: deletes match by value, never identity.
        self.partition.delete(KEY, GlobalRowId(entry.node, entry.rowid))

    def restore(self, entry):
        self.partition.insert(KEY, entry)

    def delete_many(self, entries):
        self.partition.delete_many([(KEY, grid) for grid in entries])

    def entries(self):
        return self.partition.search(KEY)

    def store(self):
        return self.partition._entries


KINDS = {
    "local": lambda: _HeapKind(group=False),
    "group": lambda: _HeapKind(group=True),
    "global": _GlobalKind,
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_ops_match_the_list_model(kind, seed):
    rng = random.Random(seed)
    index = KINDS[kind]()
    model = []
    deleted = []
    batches = []
    promoted = promoted_now = shrank_after_promotion = False
    # Grow past the promotion size, shrink well below it, twice over.
    for target in (3 * _PROMOTE_AFTER, 8, 3 * _PROMOTE_AFTER, 0):
        growing = len(model) < target
        while (len(model) < target) if growing else (len(model) > target):
            op = rng.random() if growing else 0.55 + 0.45 * rng.random()
            if op < 0.35:
                entry = index.insert()
                model.append(entry)
            elif op < 0.5:
                batch = index.insert_many(rng.randint(1, 12))
                model.extend(batch)
                batches.append(batch)
            elif op < 0.6 and deleted:
                entry = deleted.pop(rng.randrange(len(deleted)))
                index.restore(entry)
                model.append(entry)
            elif op < 0.7 and batches:
                batch = batches.pop()
                if all(entry in model for entry in batch):
                    index.delete_many(batch)
                    for entry in reversed(batch):
                        model.remove(entry)
            elif op < 0.72 and kind == "global" and promoted_now:
                # A duplicated GI insert (no dedup) turns the key back into
                # a list, which holds the entry twice.
                entry = rng.choice(model)
                index.restore(entry)
                model.append(entry)
                assert index.store()[KEY].__class__ is list
            elif model:
                entry = rng.choice(model)
                index.delete(entry)
                model.remove(entry)
                if entry not in model:
                    deleted.append(entry)
            assert index.entries() == model
            promoted_now = index.store().get(index.key).__class__ is dict
            promoted |= promoted_now
            shrank_after_promotion |= promoted and len(model) < _PROMOTE_AFTER
    assert promoted and shrank_after_promotion
    assert index.entries() == [] and not index.store()


def test_duplicate_under_a_promoted_key_keeps_its_place():
    # Only GI entries repeat: a heap never hands out a rowid twice.
    index = _GlobalKind()
    model = index.insert_many(2 * _PROMOTE_AFTER)
    index.delete(model[5])
    del model[5]
    assert index.store()[KEY].__class__ is dict
    index.restore(model[3])
    model.append(model[3])
    assert index.entries() == model
    index.delete(model[3])
    del model[3]  # the oldest copy goes, the re-inserted one stays at the tail
    assert index.entries() == model
    assert len(index.partition) == len(model)


class _Counted:
    """An index entry that counts the equality comparisons made on it."""

    comparisons = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        _Counted.comparisons += 1
        return isinstance(other, _Counted) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


def _delete_comparisons(kind, degree):
    """Equality comparisons spent deleting 8 fixed entries from a key that
    holds ``degree`` of them."""
    if kind == "global":
        partition = GlobalIndexPartition("B", "d")
        partition.insert_many((KEY, _Counted(i)) for i in range(degree))
        delete = lambda i: partition.delete(KEY, _Counted(i))
    else:
        heap = _HeapKind(group=kind == "group")
        row = (KEY, 0)
        for i in range(degree):
            heap.index.on_insert(_Counted(i), row)
        delete = lambda i: heap.index.on_delete(_Counted(i), row)
    _Counted.comparisons = 0
    # Spread over the key, the newest last: a list scan would reach each
    # only after the entries inserted before it.
    for i in range(8):
        delete(degree - 1 - i * (degree // 10))
    return _Counted.comparisons


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_delete_cost_does_not_grow_with_key_degree(kind):
    light = _delete_comparisons(kind, 2_000)
    heavy = _delete_comparisons(kind, 20_000)
    assert light == heavy <= 8


def test_auditor_sees_a_duplicated_gi_insert_on_a_heavy_key():
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    gi = cluster.create_global_index("B", "d")
    heavy = 2  # every row's key: its GI home is one node
    home = gi.home_node(heavy)
    rows = [(i, heavy, i) for i in range(4 * _PROMOTE_AFTER)]
    cluster.insert("B", rows)
    cluster.delete("B", [rows[-1]])  # promotes the heavy key's entries
    partition = cluster.nodes[home].gi_partition(gi.name)
    assert partition._entries[heavy].__class__ is dict
    assert ConsistencyAuditor(cluster).audit().ok

    source = next(node for node in range(4) if node != home)
    attach_faults(
        cluster,
        plan=FaultPlan().duplicate(link=(source, home)),
        seed=0,
        policy=RecoveryPolicy.unprotected(),
    )
    new_row = next(
        (b, heavy, b) for b in range(1000, 2000)
        if cluster.catalog.relation("B").partitioner.node_of_row((b, heavy, b))
        == source
    )
    cluster.insert("B", [new_row])

    grids = partition.search(heavy)
    assert len(grids) == len(set(grids)) + 1  # the grid is there twice
    findings = ConsistencyAuditor(cluster).audit().findings
    assert [(f.kind, f.name) for f in findings] == [("global_index", gi.name)]
