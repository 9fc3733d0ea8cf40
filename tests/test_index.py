"""Unit tests for repro.storage.index."""

import pytest

from repro.storage.heap import HeapTable
from repro.storage.index import IndexedHeap, IndexError_, LocalIndex
from repro.storage.pages import PageLayout
from repro.storage.schema import Schema


@pytest.fixture
def heap():
    return IndexedHeap(HeapTable(Schema.of("T", "k", "v")))


def test_index_built_over_existing_rows():
    table = HeapTable(Schema.of("T", "k", "v"))
    table.insert_many([(1, "a"), (1, "b"), (2, "c")])
    index = LocalIndex(table, "k")
    assert sorted(index.search(1)) == [0, 1]
    assert index.search(2) == [2]
    assert index.search(9) == []


def test_insert_maintains_index(heap):
    heap.create_index("k")
    rid = heap.insert((5, "x"))
    assert heap.index_on("k").search(5) == [rid]


def test_delete_maintains_index(heap):
    index = heap.create_index("k")
    rid = heap.insert((5, "x"))
    heap.delete(rid)
    assert index.search(5) == []


def test_delete_unknown_entry_raises():
    table = HeapTable(Schema.of("T", "k"))
    index = LocalIndex(table, "k")
    with pytest.raises(IndexError_):
        index.on_delete(0, (5,))


def test_lookup_rows(heap):
    heap.create_index("k")
    heap.insert((5, "x"))
    heap.insert((5, "y"))
    assert heap.index_on("k").lookup_rows(5) == [(5, "x"), (5, "y")]


def test_one_clustered_index_per_fragment(heap):
    heap.create_index("k", clustered=True)
    with pytest.raises(IndexError_, match="already clustered"):
        heap.create_index("v", clustered=True)


def test_second_nonclustered_index_allowed(heap):
    heap.create_index("k", clustered=True)
    heap.create_index("v", clustered=False)
    assert heap.index_on("v") is not None


def test_len_counts_entries(heap):
    index = heap.create_index("k")
    heap.insert((1, "a"))
    heap.insert((1, "b"))
    assert len(index) == 2


def test_distinct_keys_and_keys(heap):
    index = heap.create_index("k")
    heap.insert((1, "a"))
    heap.insert((1, "b"))
    heap.insert((2, "c"))
    assert index.distinct_keys() == 2
    assert sorted(index.keys()) == [1, 2]


def test_sorted_items(heap):
    index = heap.create_index("k")
    heap.insert((3, "c"))
    heap.insert((1, "a"))
    heap.insert((2, "b"))
    assert [key for key, _ in index.sorted_items()] == [1, 2, 3]


def test_matches_fit_one_page_clustered():
    table = HeapTable(Schema.of("T", "k"), PageLayout(tuples_per_page=2))
    heap = IndexedHeap(table)
    index = heap.create_index("k", clustered=True)
    heap.insert((1,))
    heap.insert((1,))
    assert index.matches_per_key_fit_one_page(1)
    heap.insert((1,))
    assert not index.matches_per_key_fit_one_page(1)


def test_matches_fit_one_page_nonclustered_is_false(heap):
    index = heap.create_index("k", clustered=False)
    heap.insert((1, "a"))
    assert not index.matches_per_key_fit_one_page(1)


def test_delete_matching(heap):
    heap.create_index("k")
    heap.insert((1, "a"))
    rid = heap.insert((1, "b"))
    assert heap.delete_matching((1, "b")) == rid
    with pytest.raises(IndexError_):
        heap.delete_matching((9, "q"))


def test_row_locator_is_not_an_index(heap):
    rowids = heap.insert_many([(1, "a"), (1, "a"), (2, "b")])
    assert heap._locator is None  # nothing attached until a locate asks
    assert heap.locate({(1, "a"): 5, (9, "z"): 1}) == {(1, "a"): rowids[:2]}
    assert heap.locating_index() is None
    heap.delete(rowids[0])
    heap.restore(rowids[0], (1, "a"))  # back at the tail of the heap
    assert heap.locate({(1, "a"): 2}) == {(1, "a"): [rowids[1], rowids[0]]}
    heap.delete(rowids[1])
    # A lone copy is held as a bare rowid, not a one-element list.
    assert heap._locator == {(1, "a"): rowids[0], (2, "b"): rowids[2]}
    heap.create_index("k")
    assert heap._locator is None  # the index locates from here on
    assert heap.locate({(1, "a"): 1}) == {(1, "a"): [rowids[0]]}
