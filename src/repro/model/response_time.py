"""Closed-form response time — paper §3.1.2.

Response time is the weighted work at the busiest node, with the join
algorithm chosen per regime:

* **index nested loops** — cost proportional to the tuples each node sees:
  all A of them under naive, ``⌈A/L⌉`` under AR/GI (the source of the
  step-wise behaviour Figure 12 zooms into);
* **sort merge** — cost dominated by one pass over the node's partner
  fragment: a scan (``B_i`` I/Os) when clustered on the join attribute, an
  external sort (``B_i·log_M B_i``) otherwise, plus the AR/GI update work
  that never goes away.

The crossover between the regimes produces Figure 11's flattening curves,
and in the sort-merge regime "the naive view maintenance algorithm with
clustered index actually outperforms the auxiliary relation method"
(Figure 10) — the one environment where naive wins.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .params import MethodVariant, ModelParameters


class JoinRegime(enum.Enum):
    INDEX_NESTED_LOOPS = "index"
    SORT_MERGE = "sort_merge"
    AUTO = "auto"


def _per_node_share(num_inserted: int, num_nodes: int) -> int:
    """⌈A/L⌉ — the busiest node's share under even key distribution."""
    return -(-num_inserted // num_nodes)


def index_response_ios(
    variant: MethodVariant, num_inserted: int, params: ModelParameters
) -> float:
    """Busiest-node I/Os when every delta tuple probes through indexes."""
    if num_inserted < 0:
        raise ValueError("num_inserted must be >= 0")
    costs = params.costs
    L = params.num_nodes
    N = params.fanout
    K = params.spread
    share = _per_node_share(num_inserted, L)
    if variant is MethodVariant.NAIVE_NONCLUSTERED:
        # Every node probes all A tuples; fetches for the N matches spread
        # over the nodes that hold them: A·(L·SEARCH + N·FETCH)/L.
        return num_inserted * (costs.search_ios + N * costs.fetch_ios / L)
    if variant is MethodVariant.NAIVE_CLUSTERED:
        return num_inserted * costs.search_ios
    if variant is MethodVariant.AUXILIARY:
        # ⌈A/L⌉ tuples at the busiest node, each: AR insert + probe.
        return share * (costs.insert_ios + costs.search_ios)
    if variant is MethodVariant.GI_NONCLUSTERED:
        return share * (costs.insert_ios + costs.search_ios + N * costs.fetch_ios)
    if variant is MethodVariant.GI_CLUSTERED:
        return share * (costs.insert_ios + costs.search_ios + K * costs.fetch_ios)
    raise ValueError(f"unknown variant {variant!r}")


def sort_merge_response_ios(
    variant: MethodVariant, num_inserted: int, params: ModelParameters
) -> float:
    """Busiest-node I/Os when the partner is scanned/sorted once instead."""
    if num_inserted < 0:
        raise ValueError("num_inserted must be >= 0")
    costs = params.costs
    share = _per_node_share(num_inserted, params.num_nodes)
    fragment = params.fragment_pages
    if variant is MethodVariant.NAIVE_NONCLUSTERED:
        return params.sort_pages(fragment)
    if variant is MethodVariant.NAIVE_CLUSTERED:
        return fragment
    if variant is MethodVariant.AUXILIARY:
        # The AR is clustered on the join attribute by construction: one
        # scan, plus the AR updates the method always pays.
        return fragment + share * costs.insert_ios
    if variant is MethodVariant.GI_NONCLUSTERED:
        return params.sort_pages(fragment) + share * costs.insert_ios
    if variant is MethodVariant.GI_CLUSTERED:
        return fragment + share * costs.insert_ios
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class ResponsePrediction:
    """Both regimes plus the model's choice between them."""

    variant: MethodVariant
    num_inserted: int
    index_ios: float
    sort_merge_ios: float

    @property
    def ios(self) -> float:
        return min(self.index_ios, self.sort_merge_ios)


def predict_response(
    variant: MethodVariant, num_inserted: int, params: ModelParameters
) -> ResponsePrediction:
    return ResponsePrediction(
        variant=variant,
        num_inserted=num_inserted,
        index_ios=index_response_ios(variant, num_inserted, params),
        sort_merge_ios=sort_merge_response_ios(variant, num_inserted, params),
    )


def response_time_ios(
    variant: MethodVariant,
    num_inserted: int,
    params: ModelParameters,
    regime: JoinRegime = JoinRegime.AUTO,
) -> float:
    """Response time under a forced or cost-chosen join regime."""
    if regime is JoinRegime.INDEX_NESTED_LOOPS:
        return index_response_ios(variant, num_inserted, params)
    if regime is JoinRegime.SORT_MERGE:
        return sort_merge_response_ios(variant, num_inserted, params)
    return predict_response(variant, num_inserted, params).ios


def sort_merge_crossover(variant: MethodVariant, params: ModelParameters) -> int:
    """Smallest insert count at which sort-merge beats index nested loops.

    The paper's ordering — naive crosses first, GI later, AR much later
    ("the global index method reaches this point much later than the naive
    method, and much earlier than the auxiliary relation method") — falls
    out of these closed forms.
    """
    low, high = 1, 1
    while (
        sort_merge_response_ios(variant, high, params)
        >= index_response_ios(variant, high, params)
    ):
        high *= 2
        if high > 10**9:
            raise RuntimeError("no crossover below 1e9 inserted tuples")
    while low < high:
        mid = (low + high) // 2
        if (
            sort_merge_response_ios(variant, mid, params)
            < index_response_ios(variant, mid, params)
        ):
            high = mid
        else:
            low = mid + 1
    return low
