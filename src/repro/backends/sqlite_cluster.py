"""A parallel RDBMS emulated with SQLite partitions.

The paper validates its model on NCR Teradata with 2/4/8 data servers.
Standing in for that commercial system, this backend runs one SQLite
database per data-server node, hash-partitions tables across them with the
same stable hash as the simulator, and measures per-node wall-clock time —
response time being the slowest node, exactly the paper's metric.

Clustered indexes are realized the way Teradata realizes them on the
partitioning attribute: the table is physically ordered on the key, here
via a ``WITHOUT ROWID`` table whose primary key leads with the clustered
column (a hidden ``_seq`` column breaks ties, since join attributes are not
unique).
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..cluster.partitioning import stable_hash
from ..storage.schema import Row, Schema

_AFFINITY = {int: "INTEGER", float: "REAL", str: "TEXT"}


def _affinity(kind: type) -> str:
    return _AFFINITY.get(kind, "BLOB")


def _column_defs(schema: Schema) -> str:
    return ", ".join(
        f"{column.name} {_affinity(column.kind)}" for column in schema.columns
    )


@dataclass
class SQLiteTableInfo:
    """Catalog entry of one partitioned table in the SQLite cluster."""

    schema: Schema
    partition_column: str
    clustered: bool
    key_position: int
    indexes: List[str] = field(default_factory=list)
    next_seq: int = 0


class SQLiteNode:
    """One data-server node: a private SQLite database."""

    def __init__(self, node_id: int, path: Optional[Path] = None) -> None:
        self.node_id = node_id
        target = ":memory:" if path is None else str(path)
        self.connection = sqlite3.connect(target)
        self.connection.execute("PRAGMA synchronous = OFF")
        self.connection.execute("PRAGMA journal_mode = MEMORY")
        #: When True, per-statement commits are held back: the enclosing
        #: :meth:`SQLiteCluster.atomic` scope commits (or rolls back) all
        #: nodes together.
        self.defer_commits = False
        #: SQLite VM steps run here inside :meth:`SQLiteCluster.counting_vm_steps`.
        self.vm_steps = 0

    def _count_vm_step(self) -> int:
        self.vm_steps += 1
        return 0  # non-zero would interrupt the statement

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        return self.connection.execute(sql, params)

    def executemany(self, sql: str, rows: Iterable[Sequence]) -> None:
        self.connection.executemany(sql, rows)
        if not self.defer_commits:
            self.connection.commit()

    def query(self, sql: str, params: Sequence = ()) -> List[Tuple]:
        return self.connection.execute(sql, params).fetchall()

    def close(self) -> None:
        self.connection.close()


class SQLiteCluster:
    """L SQLite databases acting as one shared-nothing parallel RDBMS."""

    def __init__(self, num_nodes: int, directory: Optional[Path] = None) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.nodes = [
            SQLiteNode(
                node_id,
                None if directory is None else Path(directory) / f"node{node_id}.db",
            )
            for node_id in range(num_nodes)
        ]
        self.tables: Dict[str, SQLiteTableInfo] = {}

    def close(self) -> None:
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "SQLiteCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ----------------------------------------------------------------- DDL

    def create_table(
        self,
        schema: Schema,
        partitioned_on: str,
        clustered: bool = False,
        indexes: Sequence[str] = (),
    ) -> SQLiteTableInfo:
        """Create a hash-partitioned table on every node.

        ``clustered=True`` physically orders each fragment on the
        partitioning column (Teradata's automatic clustered primary index);
        ``indexes`` adds non-clustered secondary indexes.
        """
        if schema.name in self.tables:
            raise ValueError(f"table {schema.name!r} already exists")
        key_position = schema.index_of(partitioned_on)
        info = SQLiteTableInfo(
            schema=schema,
            partition_column=partitioned_on,
            clustered=clustered,
            key_position=key_position,
        )
        if clustered:
            ddl = (
                f"CREATE TABLE {schema.name} ({_column_defs(schema)}, "
                f"_seq INTEGER, PRIMARY KEY ({partitioned_on}, _seq)) "
                "WITHOUT ROWID"
            )
        else:
            ddl = f"CREATE TABLE {schema.name} ({_column_defs(schema)})"
        for node in self.nodes:
            node.execute(ddl)
        for column in indexes:
            self.create_index(schema.name, column)
        self.tables[schema.name] = info
        return info

    def create_index(self, table: str, column: str) -> None:
        """A non-clustered secondary index on every fragment."""
        name = f"ix_{table}_{column}"
        for node in self.nodes:
            node.execute(f"CREATE INDEX IF NOT EXISTS {name} ON {table} ({column})")
        if table in self.tables and column not in self.tables[table].indexes:
            self.tables[table].indexes.append(column)

    # -------------------------------------------------------- transactions

    @contextmanager
    def atomic(self) -> Iterator["SQLiteCluster"]:
        """All-or-nothing across every node's database.

        The SQLite analogue of the simulator's undo scopes: per-statement
        commits are suppressed while the scope is open, so a base write,
        its AR co-updates, and the view delta land on their (different)
        nodes inside one open transaction each.  On success every node
        commits; on any exception every node rolls back — no partition is
        left with a half-applied statement.  (A coordinator-side one-phase
        commit: adequate here because all "nodes" share one process and
        cannot fail independently.)
        """
        if any(node.defer_commits for node in self.nodes):
            raise RuntimeError("an atomic scope is already active")
        for node in self.nodes:
            node.defer_commits = True
        try:
            yield self
        except BaseException:
            for node in self.nodes:
                node.connection.rollback()
            raise
        else:
            for node in self.nodes:
                node.connection.commit()
        finally:
            for node in self.nodes:
                node.defer_commits = False

    @contextmanager
    def counting_vm_steps(self) -> Iterator["SQLiteCluster"]:
        """Count SQLite VM steps at every node while the scope is open.

        A progress handler called at every VM step counts the work a
        statement does: unlike wall time, the count is the same on every
        run.  It slows execution many-fold, so no timing taken inside the
        scope means anything.  :meth:`run_on_all` reports each node's count
        as :attr:`ParallelResult.per_node_steps`.
        """
        for node in self.nodes:
            node.connection.set_progress_handler(node._count_vm_step, 1)
        try:
            yield self
        finally:
            for node in self.nodes:
                node.connection.set_progress_handler(None, 1)

    # ----------------------------------------------------------------- DML

    def node_of_key(self, key: object) -> int:
        return stable_hash(key) % self.num_nodes

    def scatter(self, rows: Iterable[Row], key_position: int) -> Dict[int, List[Row]]:
        """Group rows by the node their key hashes to — one message per
        group in a real interconnect."""
        by_node: Dict[int, List[Row]] = {}
        for row in rows:
            by_node.setdefault(self.node_of_key(row[key_position]), []).append(row)
        return by_node

    def load(self, table: str, rows: Iterable[Row]) -> None:
        """Partitioned bulk load."""
        info = self._info(table)
        by_node = self.scatter(rows, info.key_position)
        for node_id, node_rows in by_node.items():
            self._insert_local(info, node_id, node_rows)

    def insert(self, table: str, rows: Iterable[Row]) -> None:
        self.load(table, rows)

    def delete(self, table: str, rows: Iterable[Row]) -> None:
        """Delete one stored instance of each given row.

        Batched: rows are grouped by home node, victims are claimed per
        distinct row (so duplicated delete requests consume distinct stored
        copies, as the per-row loop did), and each node issues one
        ``executemany`` — one commit per fragment instead of one per row.
        All victims are located before any are deleted, so an unsatisfiable
        request fails before this statement removes anything.
        """
        info = self._info(table)
        predicate = " AND ".join(f"{c.name} = ?" for c in info.schema.columns)
        by_node: Dict[int, List[Row]] = {}
        for row in rows:
            by_node.setdefault(self.node_of_key(row[info.key_position]), []).append(row)
        key_sql = "_seq" if info.clustered else "rowid"
        staged: List[Tuple[SQLiteNode, List[Tuple]]] = []
        for node_id, node_rows in by_node.items():
            node = self.nodes[node_id]
            pools: Dict[Row, List] = {}
            victims: List[Tuple] = []
            for row in node_rows:
                pool = pools.get(row)
                if pool is None:
                    pool = [
                        r[0]
                        for r in node.query(
                            f"SELECT {key_sql} FROM {table} WHERE {predicate}", row
                        )
                    ]
                    pools[row] = pool
                if not pool:
                    raise KeyError(f"{table!r} holds no row {row!r}")
                victim = pool.pop(0)
                if info.clustered:
                    victims.append((row[info.key_position], victim))
                else:
                    victims.append((victim,))
            staged.append((node, victims))
        delete_sql = (
            f"DELETE FROM {table} WHERE {info.partition_column} = ? AND _seq = ?"
            if info.clustered
            else f"DELETE FROM {table} WHERE rowid = ?"
        )
        for node, victims in staged:
            if victims:
                node.executemany(delete_sql, victims)

    def _insert_local(self, info: SQLiteTableInfo, node_id: int, rows: List[Row]) -> None:
        table = info.schema.name
        if info.clustered:
            placeholders = ", ".join("?" * (info.schema.arity + 1))
            seq_rows = []
            for row in rows:
                seq_rows.append(tuple(row) + (info.next_seq,))
                info.next_seq += 1
            self.nodes[node_id].executemany(
                f"INSERT INTO {table} VALUES ({placeholders})", seq_rows
            )
        else:
            placeholders = ", ".join("?" * info.schema.arity)
            self.nodes[node_id].executemany(
                f"INSERT INTO {table} VALUES ({placeholders})", rows
            )

    # --------------------------------------------------------------- reads

    def _info(self, table: str) -> SQLiteTableInfo:
        try:
            return self.tables[table]
        except KeyError:
            raise KeyError(f"unknown table {table!r}") from None

    def select_list(self, table: str) -> str:
        """Column list excluding the clustered tables' hidden ``_seq``."""
        return ", ".join(self._info(table).schema.column_names)

    def all_rows(self, table: str) -> List[Row]:
        info = self._info(table)
        columns = self.select_list(table)
        rows: List[Row] = []
        for node in self.nodes:
            rows.extend(tuple(r) for r in node.query(f"SELECT {columns} FROM {table}"))
        return rows

    def count(self, table: str) -> int:
        return sum(
            node.query(f"SELECT COUNT(*) FROM {table}")[0][0] for node in self.nodes
        )

    def fragment_counts(self, table: str) -> List[int]:
        return [
            node.query(f"SELECT COUNT(*) FROM {table}")[0][0] for node in self.nodes
        ]

    # ------------------------------------------------- parallel execution

    def run_on_all(
        self, work: Callable[[SQLiteNode], List[Tuple]]
    ) -> "ParallelResult":
        """Execute ``work`` at every node, timing each: the basic parallel
        step.  Nodes run sequentially in this process, but each node's time
        is measured separately, so response time = max is exactly what a
        truly parallel execution would report."""
        per_node_rows: List[List[Tuple]] = []
        per_node_seconds: List[float] = []
        per_node_steps: List[int] = []
        for node in self.nodes:
            steps = node.vm_steps
            start = time.perf_counter()
            rows = work(node)
            per_node_seconds.append(time.perf_counter() - start)
            per_node_steps.append(node.vm_steps - steps)
            per_node_rows.append(rows)
        return ParallelResult(per_node_rows, per_node_seconds, per_node_steps)


@dataclass
class ParallelResult:
    """Rows and wall time of one parallel step, per node."""

    per_node_rows: List[List[Tuple]]
    per_node_seconds: List[float]
    #: SQLite VM steps per node; zeros outside
    #: :meth:`SQLiteCluster.counting_vm_steps`.
    per_node_steps: List[int] = field(default_factory=list)

    @property
    def rows(self) -> List[Tuple]:
        return [row for rows in self.per_node_rows for row in rows]

    @property
    def response_seconds(self) -> float:
        """The slowest node: the paper's response-time metric."""
        return max(self.per_node_seconds) if self.per_node_seconds else 0.0

    @property
    def response_steps(self) -> int:
        """The busiest node's VM steps: response time's deterministic twin."""
        return max(self.per_node_steps, default=0)

    @property
    def total_seconds(self) -> float:
        """Summed work: the wall-clock analogue of TW."""
        return sum(self.per_node_seconds)
