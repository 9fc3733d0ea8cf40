"""The paper's §3.3 validation experiment, on the SQLite parallel backend.

Mirrors the Teradata methodology step by step:

1. non-clustered indexes on ``orders.custkey`` and ``lineitem.orderkey``;
2. a ``delta_customer`` relation with customer's schema and partitioning;
3. delta tuples inserted into it (each matching one orders tuple);
4. auxiliary relations ``orders_1`` (partitioned+clustered on custkey) and
   ``lineitem_1`` (partitioned+clustered on orderkey) with the same content
   as the base relations;
5. the *join step* of view maintenance timed as SQL — against orders /
   lineitem for the naive method, against orders_1 / lineitem_1 for the AR
   method.  (The base-relation update and the view update are identical
   across methods and excluded, as in the paper.)

The naive method ships the whole delta to every node (broadcast), the AR
method ships each delta tuple to the single node its join key hashes to.
Because Teradata could not run the global-index method, the paper stops
there; this backend additionally emulates GI with a rowid-mapping table —
the extension experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..storage.schema import Row, Schema
from ..workloads.tpcr import (
    CUSTOMER_SCHEMA,
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    TpcrDataset,
    TpcrGenerator,
)
from .sqlite_cluster import ParallelResult, SQLiteCluster

JV1_SELECT = "c.custkey, c.acctbal, o.orderkey, o.totalprice"
JV2_SELECT = (
    "c.custkey, c.acctbal, o.orderkey, o.totalprice, l.discount, l.extendedprice"
)


@dataclass
class StepTiming:
    """Timing of one maintenance join step (possibly multi-phase)."""

    method: str
    view: str
    response_seconds: float
    total_seconds: float
    result_rows: int
    #: The busiest node's SQLite VM steps per phase, summed; counted only
    #: inside :meth:`SQLiteCluster.counting_vm_steps`.
    response_steps: int = 0


class TeradataStyleExperiment:
    """The Figure 14 measurement rig."""

    def __init__(
        self,
        num_nodes: int,
        scale: float = 0.002,
        seed: int = 2003,
        with_global_indexes: bool = False,
        dataset: Optional[TpcrDataset] = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.generator = TpcrGenerator(scale=scale, seed=seed)
        self.dataset = dataset or self.generator.generate()
        self.cluster = SQLiteCluster(num_nodes)
        self.with_global_indexes = with_global_indexes
        self._next_custkey = len(self.dataset.customers)
        self._build()

    def close(self) -> None:
        self.cluster.close()

    def __enter__(self) -> "TeradataStyleExperiment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- setup

    def _build(self) -> None:
        cluster = self.cluster
        cluster.create_table(CUSTOMER_SCHEMA, partitioned_on="custkey")
        cluster.create_table(
            ORDERS_SCHEMA, partitioned_on="orderkey", indexes=["custkey"]
        )
        cluster.create_table(
            LINEITEM_SCHEMA, partitioned_on="linekey", indexes=["orderkey"]
        )
        cluster.load("customer", self.dataset.customers)
        cluster.load("orders", self.dataset.orders)
        cluster.load("lineitem", self.dataset.lineitems)
        # Auxiliary relations: same schema/content, repartitioned on the
        # join attribute, clustered (Teradata builds the clustered index on
        # the partitioning attribute automatically).
        cluster.create_table(
            ORDERS_SCHEMA.rename("orders_1"), partitioned_on="custkey", clustered=True
        )
        cluster.create_table(
            LINEITEM_SCHEMA.rename("lineitem_1"),
            partitioned_on="orderkey",
            clustered=True,
        )
        cluster.load("orders_1", self.dataset.orders)
        cluster.load("lineitem_1", self.dataset.lineitems)
        if self.with_global_indexes:
            self._build_global_indexes()

    def _build_global_indexes(self) -> None:
        """GI emulation: (key, node, rowid) tables partitioned on the key."""
        cluster = self.cluster
        cluster.create_table(
            Schema.of("gi_orders_custkey", "custkey", "node", "ref",
                      kinds=(int, int, int)),
            partitioned_on="custkey",
        )
        cluster.create_index("gi_orders_custkey", "custkey")
        entries: List[Row] = []
        for node in cluster.nodes:
            for custkey, ref in node.query("SELECT custkey, rowid FROM orders"):
                entries.append((custkey, node.node_id, ref))
        cluster.load("gi_orders_custkey", entries)

    # --------------------------------------------------------------- delta

    def new_delta(self, count: int) -> List[Row]:
        """Fresh customer tuples, each matching exactly one orders tuple."""
        delta = self.generator.new_customers(count, starting_at=self._next_custkey)
        self._next_custkey += count
        return delta

    def _stage_delta(
        self, per_node_rows: Dict[int, List[Row]], schema: Schema
    ) -> None:
        """(Re)create the delta_customer staging table on every node and
        place each node's slice — the network shipping the timed join step
        then reads locally, as on the real system."""
        columns = ", ".join(
            f"{column.name} {'INTEGER' if column.kind is int else 'REAL' if column.kind is float else 'TEXT'}"
            for column in schema.columns
        )
        placeholders = ", ".join("?" * schema.arity)
        for node in self.cluster.nodes:
            node.execute("DROP TABLE IF EXISTS delta_customer")
            node.execute(f"CREATE TABLE delta_customer ({columns})")
            rows = per_node_rows.get(node.node_id, [])
            if rows:
                node.executemany(
                    f"INSERT INTO delta_customer VALUES ({placeholders})", rows
                )

    def _broadcast_delta(self, delta: Sequence[Row]) -> None:
        self._stage_delta(
            {node.node_id: list(delta) for node in self.cluster.nodes},
            CUSTOMER_SCHEMA,
        )

    def _scatter_delta(self, delta: Sequence[Row]) -> None:
        key_position = CUSTOMER_SCHEMA.index_of("custkey")
        self._stage_delta(
            self.cluster.scatter(delta, key_position), CUSTOMER_SCHEMA
        )

    # ------------------------------------------------------------ JV1 step

    def naive_jv1(self, delta: Sequence[Row]) -> StepTiming:
        """Naive: broadcast the delta; every node probes its orders fragment
        through the non-clustered custkey index."""
        self._broadcast_delta(delta)
        result = self.cluster.run_on_all(
            lambda node: node.query(
                f"SELECT {JV1_SELECT} FROM delta_customer c "
                "JOIN orders o ON c.custkey = o.custkey"
            )
        )
        return _timing("naive", "JV1", result)

    def ar_jv1(self, delta: Sequence[Row]) -> StepTiming:
        """AR: scatter the delta by custkey; each node joins its slice with
        its clustered orders_1 fragment."""
        self._scatter_delta(delta)
        result = self.cluster.run_on_all(
            lambda node: node.query(
                f"SELECT {JV1_SELECT} FROM delta_customer c "
                "JOIN orders_1 o ON c.custkey = o.custkey"
            )
        )
        return _timing("auxiliary", "JV1", result)

    def gi_jv1(self, delta: Sequence[Row]) -> StepTiming:
        """GI (extension): probe the custkey→(node, rowid) map at each key's
        home node, then fetch matching orders rows only at owning nodes."""
        if not self.with_global_indexes:
            raise RuntimeError("experiment built without global indexes")
        key_position = CUSTOMER_SCHEMA.index_of("custkey")
        slices = self.cluster.scatter(delta, key_position)
        start = time.perf_counter()
        per_node_seconds: List[float] = []
        # Phase 1: GI probes at each key's home node.
        fetch_lists: Dict[int, List[Tuple[Row, int]]] = {}
        for node in self.cluster.nodes:
            phase_start = time.perf_counter()
            for row in slices.get(node.node_id, []):
                for _, owner, ref in node.query(
                    "SELECT custkey, node, ref FROM gi_orders_custkey "
                    "WHERE custkey = ?",
                    (row[key_position],),
                ):
                    fetch_lists.setdefault(owner, []).append((row, ref))
            per_node_seconds.append(time.perf_counter() - phase_start)
        probe_response = max(per_node_seconds, default=0.0)
        # Phase 2: rowid fetches at the owning nodes.
        rows_out = 0
        per_node_seconds = []
        for node in self.cluster.nodes:
            phase_start = time.perf_counter()
            for customer_row, ref in fetch_lists.get(node.node_id, []):
                matches = node.query(
                    "SELECT orderkey, totalprice FROM orders WHERE rowid = ?",
                    (ref,),
                )
                rows_out += len(matches)
            per_node_seconds.append(time.perf_counter() - phase_start)
        fetch_response = max(per_node_seconds, default=0.0)
        total = time.perf_counter() - start
        return StepTiming(
            method="global_index",
            view="JV1",
            response_seconds=probe_response + fetch_response,
            total_seconds=total,
            result_rows=rows_out,
        )

    # ------------------------------------------------------------ JV2 step

    def naive_jv2(self, delta: Sequence[Row]) -> StepTiming:
        """Naive JV2: broadcast the delta, join orders everywhere, then
        broadcast the intermediate result and join lineitem everywhere."""
        self._broadcast_delta(delta)
        phase1 = self.cluster.run_on_all(
            lambda node: node.query(
                "SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice "
                "FROM delta_customer c JOIN orders o ON c.custkey = o.custkey"
            )
        )
        intermediate = phase1.rows
        self._stage_intermediate(
            {node.node_id: intermediate for node in self.cluster.nodes}
        )
        phase2 = self.cluster.run_on_all(
            lambda node: node.query(
                "SELECT i.custkey, i.acctbal, i.orderkey, i.totalprice, "
                "l.discount, l.extendedprice "
                "FROM delta_co i JOIN lineitem l ON i.orderkey = l.orderkey"
            )
        )
        return _timing_two_phase("naive", "JV2", phase1, phase2)

    def ar_jv2(self, delta: Sequence[Row]) -> StepTiming:
        """AR JV2: scatter the delta by custkey (co-located with orders_1),
        then scatter the intermediate by orderkey (co-located with
        lineitem_1)."""
        self._scatter_delta(delta)
        phase1 = self.cluster.run_on_all(
            lambda node: node.query(
                "SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice "
                "FROM delta_customer c JOIN orders_1 o ON c.custkey = o.custkey"
            )
        )
        orderkey_position = 2
        self._stage_intermediate(
            self.cluster.scatter(
                [tuple(r) for r in phase1.rows], orderkey_position
            )
        )
        phase2 = self.cluster.run_on_all(
            lambda node: node.query(
                "SELECT i.custkey, i.acctbal, i.orderkey, i.totalprice, "
                "l.discount, l.extendedprice "
                "FROM delta_co i JOIN lineitem_1 l ON i.orderkey = l.orderkey"
            )
        )
        return _timing_two_phase("auxiliary", "JV2", phase1, phase2)

    def _stage_intermediate(self, per_node_rows: Dict[int, List[Tuple]]) -> None:
        for node in self.cluster.nodes:
            node.execute("DROP TABLE IF EXISTS delta_co")
            node.execute(
                "CREATE TABLE delta_co "
                "(custkey INTEGER, acctbal REAL, orderkey INTEGER, totalprice REAL)"
            )
            rows = per_node_rows.get(node.node_id, [])
            if rows:
                node.executemany(
                    "INSERT INTO delta_co VALUES (?, ?, ?, ?)", rows
                )

    # --------------------------------------------- full view maintenance

    def materialize_jv1(self) -> None:
        """Create and load the jv1 table from the current base contents."""
        self.cluster.create_table(
            Schema.of("jv1", "custkey", "acctbal", "orderkey", "totalprice",
                      kinds=(int, float, int, float)),
            partitioned_on="custkey",
        )
        rows: List[Row] = []
        for node in self.cluster.nodes:
            rows.extend(
                tuple(r)
                for r in node.query(
                    f"SELECT {JV1_SELECT} FROM customer c "
                    "JOIN orders_1 o ON c.custkey = o.custkey"
                )
            )
        self.cluster.load("jv1", rows)

    def maintain_jv1_insert(self, delta: Sequence[Row], method: str) -> StepTiming:
        """Full maintenance: compute the join step with ``method``, apply
        the base insert, and install the delta into jv1.

        The base insert and the multi-row view-delta application run in one
        atomic scope: every node commits once at the end (instead of once
        per bulk write), and a failure rolls the whole statement back — the
        paper's transaction sketch, on SQLite.
        """
        if method == "naive":
            timing = self.naive_jv1(delta)
            joined = self._collect_naive_jv1()
        elif method == "auxiliary":
            timing = self.ar_jv1(delta)
            joined = self._collect_ar_jv1()
        else:
            raise ValueError(f"unsupported method {method!r}")
        with self.cluster.atomic():
            self.cluster.insert("customer", delta)
            self.cluster.load("jv1", joined)
        return timing

    def _collect_naive_jv1(self) -> List[Row]:
        rows: List[Row] = []
        seen_nodes = set()
        for node in self.cluster.nodes:
            for row in node.query(
                f"SELECT {JV1_SELECT} FROM delta_customer c "
                "JOIN orders o ON c.custkey = o.custkey"
            ):
                rows.append(tuple(row))
            seen_nodes.add(node.node_id)
        return rows

    def _collect_ar_jv1(self) -> List[Row]:
        rows: List[Row] = []
        for node in self.cluster.nodes:
            for row in node.query(
                f"SELECT {JV1_SELECT} FROM delta_customer c "
                "JOIN orders_1 o ON c.custkey = o.custkey"
            ):
                rows.append(tuple(row))
        return rows


def _timing(method: str, view: str, result: ParallelResult) -> StepTiming:
    return StepTiming(
        method=method,
        view=view,
        response_seconds=result.response_seconds,
        total_seconds=result.total_seconds,
        result_rows=len(result.rows),
        response_steps=result.response_steps,
    )


def _timing_two_phase(
    method: str, view: str, phase1: ParallelResult, phase2: ParallelResult
) -> StepTiming:
    return StepTiming(
        method=method,
        view=view,
        response_seconds=phase1.response_seconds + phase2.response_seconds,
        total_seconds=phase1.total_seconds + phase2.total_seconds,
        result_rows=len(phase2.rows),
        response_steps=phase1.response_steps + phase2.response_steps,
    )
