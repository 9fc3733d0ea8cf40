"""Unit tests for repro.storage.heap."""

import pytest

from repro.storage.heap import HeapTable, RowNotFound
from repro.storage.pages import PageLayout
from repro.storage.schema import Schema, SchemaError


@pytest.fixture
def table():
    return HeapTable(Schema.of("T", "k", "v"))


def test_insert_assigns_monotonic_rowids(table):
    assert table.insert((1, "a")) == 0
    assert table.insert((2, "b")) == 1
    assert len(table) == 2


def test_rowids_never_reused(table):
    rid = table.insert((1, "a"))
    table.delete(rid)
    assert table.insert((2, "b")) == rid + 1


def test_fetch(table):
    rid = table.insert((1, "a"))
    assert table.fetch(rid) == (1, "a")


def test_fetch_missing(table):
    with pytest.raises(RowNotFound):
        table.fetch(99)


def test_delete_returns_row(table):
    rid = table.insert((1, "a"))
    assert table.delete(rid) == (1, "a")
    assert len(table) == 0
    with pytest.raises(RowNotFound):
        table.delete(rid)


def test_arity_checked(table):
    with pytest.raises(SchemaError):
        table.insert((1, 2, 3))


def test_scan_is_insertion_ordered(table):
    table.insert_many([(3, "x"), (1, "y")])
    assert [row for _, row in table.scan()] == [(3, "x"), (1, "y")]


def test_num_pages():
    table = HeapTable(Schema.of("T", "k"), PageLayout(tuples_per_page=10))
    assert table.num_pages == 0
    table.insert_many([(i,) for i in range(11)])
    assert table.num_pages == 2


def test_iter_yields_rows(table):
    table.insert_many([(1, "a"), (2, "b")])
    assert list(table) == [(1, "a"), (2, "b")]
