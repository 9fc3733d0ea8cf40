"""Unit tests for repro.storage.pages."""

import math

import pytest

from repro.storage.pages import DEFAULT_LAYOUT, PageLayout


def test_pages_for_tuples_ceiling():
    layout = PageLayout(tuples_per_page=100)
    assert layout.pages_for_tuples(0) == 0
    assert layout.pages_for_tuples(1) == 1
    assert layout.pages_for_tuples(100) == 1
    assert layout.pages_for_tuples(101) == 2


def test_pages_for_tuples_negative_rejected():
    with pytest.raises(ValueError):
        PageLayout().pages_for_tuples(-1)


def test_invalid_layout_rejected():
    with pytest.raises(ValueError):
        PageLayout(tuples_per_page=0)
    with pytest.raises(ValueError):
        PageLayout(memory_pages=1)


def test_sort_cost_in_memory_is_scan():
    layout = PageLayout(tuples_per_page=1, memory_pages=100)
    assert layout.sort_cost_pages(100) == 100.0
    assert layout.sort_cost_pages(0) == 0.0


def test_sort_cost_external_matches_paper_formula():
    layout = PageLayout(tuples_per_page=1, memory_pages=100)
    pages = 6_400
    assert layout.sort_cost_pages(pages) == pytest.approx(
        pages * math.log(pages, 100)
    )


def test_sort_cost_monotone_in_pages():
    layout = PageLayout(tuples_per_page=1, memory_pages=10)
    costs = [layout.sort_cost_pages(p) for p in (5, 10, 20, 100, 1000)]
    assert costs == sorted(costs)


def test_scan_cost():
    assert DEFAULT_LAYOUT.scan_cost_pages(7) == 7.0
    assert DEFAULT_LAYOUT.scan_cost_pages(-3) == 0.0
