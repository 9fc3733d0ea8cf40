"""TPC-R-style workload — the paper's validation schema (§3.3, Table 1).

Three relations following the standard TPC-R benchmark shapes::

    customer (custkey, acctbal, ...)        partitioned on custkey
    orders   (orderkey, custkey, totalprice, ...)  partitioned on orderkey
    lineitem (orderkey, partkey, suppkey, extendedprice, discount, ...)

and the paper's join behaviour: **each customer tuple matches exactly one
orders tuple on custkey** and **each orders tuple matches four lineitem
tuples on orderkey**.  Together with Table 1's cardinalities (0.15M /
1.5M / 6M at scale 1.0) this means order *i* gets custkey *i* — customers
cover custkeys 0..0.15M-1, so exactly one order per customer and the other
90% of orders dangle, which is the only reading consistent with both
statements in the paper.

Partitioning note: the paper's experiment builds ``orders_1`` partitioned
on custkey and ``lineitem_1`` partitioned on orderkey as auxiliary
relations, so the base orders/lineitem cannot be partitioned on those join
attributes; we partition orders on orderkey and lineitem on its unique
``linekey`` (Teradata's (orderkey, linenumber) primary index stands in the
original; any non-join attribute preserves the behaviour under study).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..storage.schema import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster

CUSTOMER_SCHEMA = Schema.of(
    "customer", "custkey", "acctbal", "name", "nationkey",
    kinds=(int, float, str, int),
)
ORDERS_SCHEMA = Schema.of(
    "orders", "orderkey", "custkey", "totalprice", "orderstatus",
    kinds=(int, int, float, str),
)
LINEITEM_SCHEMA = Schema.of(
    "lineitem", "linekey", "orderkey", "partkey", "suppkey",
    "extendedprice", "discount",
    kinds=(int, int, int, int, float, float),
)

#: Table 1 cardinalities at scale factor 1.0.
BASE_CUSTOMERS = 150_000
ORDERS_PER_CUSTOMER_RANGE = 10     # orders = 10 x customers (Table 1 ratio)
LINEITEMS_PER_ORDER = 4            # "each orders tuple matches 4 lineitem tuples"

#: Table 1 reports these total sizes (MB) at scale 1.0; used to extrapolate
#: the size column of the reproduced table.
PAPER_SIZES_MB = {"customer": 25, "orders": 178, "lineitem": 764}
PAPER_ROWS = {"customer": 150_000, "orders": 1_500_000, "lineitem": 6_000_000}


@dataclass
class TpcrDataset:
    """Generated rows for all three relations."""

    scale: float
    customers: List[Row] = field(default_factory=list)
    orders: List[Row] = field(default_factory=list)
    lineitems: List[Row] = field(default_factory=list)

    @property
    def num_customers(self) -> int:
        return len(self.customers)

    def summary_rows(self) -> List[Tuple[str, int, float]]:
        """(relation, tuples, estimated size MB) — the reproduced Table 1,
        with sizes extrapolated from the paper's bytes-per-row."""
        out = []
        for name, rows in (
            ("customer", self.customers),
            ("orders", self.orders),
            ("lineitem", self.lineitems),
        ):
            bytes_per_row = PAPER_SIZES_MB[name] * 1e6 / PAPER_ROWS[name]
            out.append((name, len(rows), len(rows) * bytes_per_row / 1e6))
        return out


class TpcrGenerator:
    """Deterministic generator of the paper's test data set."""

    def __init__(self, scale: float = 0.001, seed: int = 2003) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed

    def generate(self) -> TpcrDataset:
        rng = random.Random(self.seed)
        num_customers = max(1, int(BASE_CUSTOMERS * self.scale))
        num_orders = num_customers * ORDERS_PER_CUSTOMER_RANGE
        dataset = TpcrDataset(scale=self.scale)
        for custkey in range(num_customers):
            dataset.customers.append(
                (
                    custkey,
                    round(rng.uniform(-999.99, 9999.99), 2),
                    f"Customer#{custkey:09d}",
                    rng.randrange(25),
                )
            )
        linekey = 0
        for orderkey in range(num_orders):
            # Order i carries custkey i: each customer (custkey < customers)
            # matches exactly one order; the rest dangle.
            dataset.orders.append(
                (
                    orderkey,
                    orderkey,
                    round(rng.uniform(850.0, 560000.0), 2),
                    rng.choice("OFP"),
                )
            )
            for _ in range(LINEITEMS_PER_ORDER):
                dataset.lineitems.append(
                    (
                        linekey,
                        orderkey,
                        rng.randrange(200_000),
                        rng.randrange(10_000),
                        round(rng.uniform(900.0, 105_000.0), 2),
                        round(rng.uniform(0.0, 0.10), 2),
                    )
                )
                linekey += 1
        return dataset

    def new_customers(self, count: int, starting_at: int) -> List[Row]:
        """Delta customers whose custkeys match existing dangling orders —
        the paper's 128-tuple insert, each with exactly one matching order.

        ``starting_at`` must be at least the current number of customers and
        below the number of orders for the one-match property to hold.
        """
        rng = random.Random(self.seed + starting_at)
        return [
            (
                custkey,
                round(rng.uniform(-999.99, 9999.99), 2),
                f"Customer#{custkey:09d}",
                rng.randrange(25),
            )
            for custkey in range(starting_at, starting_at + count)
        ]


def load_into(cluster: "Cluster", dataset: TpcrDataset) -> None:
    """Create and bulk-load the three relations into a simulator cluster.

    Loading goes straight into fragments (uncharged), matching the paper's
    pre-loaded warehouse; the measured work is the later delta maintenance.
    """
    cluster.create_relation(CUSTOMER_SCHEMA, partitioned_on="custkey")
    cluster.create_relation(ORDERS_SCHEMA, partitioned_on="orderkey")
    cluster.create_relation(LINEITEM_SCHEMA, partitioned_on="linekey")
    for schema, rows in (
        (CUSTOMER_SCHEMA, dataset.customers),
        (ORDERS_SCHEMA, dataset.orders),
        (LINEITEM_SCHEMA, dataset.lineitems),
    ):
        info = cluster.catalog.relation(schema.name)
        for row in rows:
            node = info.partitioner.node_of_row(row)
            cluster.nodes[node].fragment(schema.name).insert(row)


def jv1_definition(partitioned: bool = True):
    """JV1: customer ⋈ orders on custkey (paper §3.3)."""
    from ..cluster.partitioning import HashPartitioning, RoundRobinPartitioning
    from ..core.view import JoinCondition, JoinViewDefinition

    return JoinViewDefinition(
        name="JV1",
        relations=("customer", "orders"),
        conditions=(JoinCondition("customer", "custkey", "orders", "custkey"),),
        select=(
            ("customer", "custkey"),
            ("customer", "acctbal"),
            ("orders", "orderkey"),
            ("orders", "totalprice"),
        ),
        # custkey collides between customer and orders, so the output
        # column is qualified to customer_custkey.
        partitioning=(
            HashPartitioning("customer_custkey")
            if partitioned
            else RoundRobinPartitioning()
        ),
    )


def jv2_definition(partitioned: bool = True):
    """JV2: customer ⋈ orders ⋈ lineitem on custkey and orderkey (§3.3)."""
    from ..cluster.partitioning import HashPartitioning, RoundRobinPartitioning
    from ..core.view import JoinCondition, JoinViewDefinition

    return JoinViewDefinition(
        name="JV2",
        relations=("customer", "orders", "lineitem"),
        conditions=(
            JoinCondition("customer", "custkey", "orders", "custkey"),
            JoinCondition("orders", "orderkey", "lineitem", "orderkey"),
        ),
        select=(
            ("customer", "custkey"),
            ("customer", "acctbal"),
            ("orders", "orderkey"),
            ("orders", "totalprice"),
            ("lineitem", "discount"),
            ("lineitem", "extendedprice"),
        ),
        partitioning=(
            HashPartitioning("customer_custkey")
            if partitioned
            else RoundRobinPartitioning()
        ),
    )
