"""Unit-cost probes: one primitive of each layer, timed standalone.

``unit x count`` is how the tracer prices the leaves it only counts, and
how a reader checks a layer's ``self_s`` (1.9 M charges at 140 ns explain
0.27 s of ``costs.ledger``).  Each probe builds its own tiny fixture, runs
the primitive in a tight loop, and reports the **minimum** of five batches
— a unit cost is a floor, and the minimum is what repeats.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Dict

from repro.cluster.network import Network
from repro.cluster.partitioning import HashPartitioning
from repro.core.delta import FRAG_DELTA, OP_INSERT, DeltaBlock
from repro.costs import CostLedger, Op, Tag
from repro.faults.undo import UndoLog
from repro.joins.nested_loops import index_nested_loops_join
from repro.storage import Schema
from repro.storage.global_index import GlobalIndexPartition, GlobalRowId
from repro.storage.heap import HeapTable
from repro.storage.index import LocalIndex

_SCHEMA = Schema.of("P", "a", "c", "e", kinds=(int, int, int))
_ROWS = [(serial, serial % 97, serial) for serial in range(2048)]
_BATCHES = 5


def _best_ns(run: Callable[[], int]) -> float:
    """Nanoseconds per unit: ``run`` does a batch and returns its unit
    count; the fastest of the batches wins."""
    best = float("inf")
    for _ in range(_BATCHES):
        start = time.perf_counter_ns()
        units = run()
        best = min(best, (time.perf_counter_ns() - start) / units)
    return best


def _charge() -> int:
    ledger = CostLedger()
    charge = ledger.charge
    for node in range(4096):
        charge(node & 7, Op.SEARCH, Tag.MAINTAIN)
    return 4096


def _send_many() -> int:
    network = Network(8, CostLedger())
    for message in range(2048):
        network.send_many(message & 7, (message >> 3) & 7, 3, Tag.MAINTAIN)
    return 2048


def _route() -> int:
    node_of_row = HashPartitioning("a").bind(_SCHEMA, 8).node_of_row
    for row in _ROWS:
        node_of_row(row)
    return len(_ROWS)


def _split() -> int:
    HashPartitioning("a").bind(_SCHEMA, 8).split(_ROWS)
    return len(_ROWS)


def _heap_insert_many() -> int:
    HeapTable(_SCHEMA).insert_many(_ROWS)
    return len(_ROWS)


def _undo_record() -> int:
    log = UndoLog()
    undo = int  # never invoked: the log is discarded, not rolled back
    for _ in range(2048):
        log.record(undo, node=0, tag=Tag.BASE, writes=1, description="probe")
    log.discard()
    return 2048


def _block_roundtrip() -> int:
    block = DeltaBlock(FRAG_DELTA, 0, "P")
    block.extend(OP_INSERT, range(len(_ROWS)), _ROWS, Tag.BASE)
    buffers = []
    blob = pickle.dumps(block, protocol=5, buffer_callback=buffers.append)
    # Raw views, as the pool's transport frames them (cluster/parallel.py).
    pickle.loads(blob, buffers=[buffer.raw() for buffer in buffers])
    return len(_ROWS)


def measure() -> Dict[str, float]:
    """Every unit cost, in nanoseconds (per call, or per row for ``*_row``)."""
    table = HeapTable(_SCHEMA)
    table.insert_many(_ROWS)
    index = LocalIndex(table, "c")
    partition = GlobalIndexPartition("P", "c")
    partition.insert_many(
        (row[1], GlobalRowId(serial & 7, serial)) for serial, row in enumerate(_ROWS)
    )

    def index_search() -> int:
        search = index.search
        for key in range(97):
            search(key)
        return 97

    def gi_search() -> int:
        search = partition.search_grouped
        for key in range(97):
            search(key)
        return 97

    def inl() -> int:
        outer = _ROWS[:256]
        index_nested_loops_join(outer, lambda row: row[1], index)
        return len(outer)

    return {
        "costs.ledger.charge_ns": _best_ns(_charge),
        "cluster.network.send_many_ns": _best_ns(_send_many),
        "cluster.partitioning.route_ns": _best_ns(_route),
        "cluster.partitioning.split_ns_row": _best_ns(_split),
        "storage.heap.insert_many_ns_row": _best_ns(_heap_insert_many),
        "storage.index.search_ns": _best_ns(index_search),
        "storage.global_index.search_ns": _best_ns(gi_search),
        "core.delta.block_roundtrip_ns_row": _best_ns(_block_roundtrip),
        "joins.inl_ns_row": _best_ns(inl),
        "faults.undo.record_ns": _best_ns(_undo_record),
    }
