"""Index nested loops join — the small-delta regime's algorithm.

Probes an index on the inner relation once per outer row.  Cost (per the
paper's units): one SEARCH per probe, plus one FETCH per match when the
index is non-clustered; clustered matches ride the landing page for free.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from ..storage.index import LocalIndex
from ..storage.schema import Row


def index_nested_loops_join(
    outer: Iterable[Row],
    outer_key: Callable[[Row], object],
    inner_index: LocalIndex,
    on_search: Optional[Callable[[], None]] = None,
    on_fetch: Optional[Callable[[int], None]] = None,
) -> List[Tuple[Row, Row]]:
    """Join ``outer`` rows against the indexed inner fragment.

    ``on_search``/``on_fetch`` are accounting hooks: called once per probe
    and once per *charged* batch of fetches (non-clustered only), letting
    callers bill any ledger without this module knowing about clusters.
    """
    results: List[Tuple[Row, Row]] = []
    for outer_row in outer:
        key = outer_key(outer_row)
        if on_search is not None:
            on_search()
        rowids = inner_index.search(key)
        if not rowids:
            continue
        if not inner_index.clustered and on_fetch is not None:
            on_fetch(len(rowids))
        for rowid in rowids:
            results.append((outer_row, inner_index.table.fetch(rowid)))
    return results

