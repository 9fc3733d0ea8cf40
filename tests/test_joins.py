"""Tests for repro.joins (the index nested loops join)."""

from repro.joins import index_nested_loops_join
from repro.storage.heap import HeapTable
from repro.storage.index import IndexedHeap
from repro.storage.schema import Schema


def build_inner(rows, clustered=False):
    heap = IndexedHeap(HeapTable(Schema.of("B", "d", "f")))
    index = heap.create_index("d", clustered=clustered)
    for row in rows:
        heap.insert(row)
    return index


OUTER = [(10, 1), (20, 2), (30, 3)]
INNER = [(1, "a"), (1, "b"), (2, "c"), (9, "z")]
EXPECTED = {((10, 1), (1, "a")), ((10, 1), (1, "b")), ((20, 2), (2, "c"))}


def test_index_nested_loops_results():
    index = build_inner(INNER)
    results = index_nested_loops_join(OUTER, lambda r: r[1], index)
    assert set(results) == EXPECTED


def test_index_nested_loops_accounting_nonclustered():
    index = build_inner(INNER, clustered=False)
    searches, fetches = [], []
    index_nested_loops_join(
        OUTER, lambda r: r[1], index,
        on_search=lambda: searches.append(1),
        on_fetch=fetches.append,
    )
    assert len(searches) == 3
    assert sum(fetches) == 3  # (1,a),(1,b) then (2,c)


def test_index_nested_loops_accounting_clustered_no_fetch():
    index = build_inner(INNER, clustered=True)
    fetches = []
    index_nested_loops_join(
        OUTER, lambda r: r[1], index, on_fetch=fetches.append
    )
    assert fetches == []
