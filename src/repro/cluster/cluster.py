"""The parallel RDBMS: L shared-nothing data servers behind one facade.

The :class:`Cluster` owns the nodes, the accounted network, the catalog, and
the cost ledger.  Its update path follows the paper's transaction sketch:

    begin transaction
        update base relation;
        update auxiliary relations / global indexes of that relation;
        update every join view defined over it;
    end transaction

Base-relation writes are tagged ``BASE``, auxiliary-structure co-updates and
join probing are tagged ``MAINTAIN`` (the paper's TW), and view writes are
tagged ``VIEW``, so measurements can reproduce exactly the differential cost
the paper models.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.delta import Delta, PlacedRow
from ..costs import CostLedger, CostParameters, CostSnapshot, Op, PAPER_COSTS, Tag
from ..obs.collect import DISABLED
from ..storage import GlobalRowId, PageLayout, Row, Schema
from ..storage.pages import DEFAULT_LAYOUT
from .catalog import (
    AuxiliaryRelationInfo,
    Catalog,
    GlobalIndexInfo,
    RelationInfo,
    ViewInfo,
)
from .membership import (
    ClusterMembership,
    MigrationReport,
    Replicator,
    _check_no_open_scope,
)
from .network import Network
from .node import Node
from .partitioning import (
    BoundRoundRobin,
    ConsistentHashPartitioning,
    HashPartitioning,
    PartitioningSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.recovery import FaultController
    from ..faults.undo import UndoLog
    from .parallel import ParallelEngine


class Cluster:
    """A parallel RDBMS with ``num_nodes`` data-server nodes."""

    def __init__(
        self,
        num_nodes: int,
        costs: CostParameters = PAPER_COSTS,
        layout: PageLayout = DEFAULT_LAYOUT,
        batch_execution: bool = True,
        workers: Optional[int] = None,
        probe_cache_threshold: int = 3,
        sanitize: Optional[bool] = None,
        shared_maintenance: bool = True,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for serial)")
        self.num_nodes = num_nodes
        self.layout = layout
        #: Enables the batched delta-execution engine (bulk routing, probe
        #: memoization, coalesced sends).  Charge-equivalent to the
        #: tuple-at-a-time reference engine on the fault-free path; pass
        #: ``False`` to force the reference engine everywhere (the
        #: equivalence tests compare the two).
        self.batch_execution = batch_execution
        #: ``None`` (default) keeps execution serial.  An integer forks a
        #: persistent pool of that many **read servers** (see
        #: :mod:`repro.cluster.parallel`): mutations stay coordinator-side
        #: on the bulk paths and reach workers lazily as columnar refresh
        #: blocks, while read hops fan out slot-sticky across the pool —
        #: with bit-identical ledgers, stats, and fragment contents.
        self.workers = workers
        #: Probe frequency at which a worker promotes a join key to its
        #: resident heavy-hitter cache; ``0`` disables the cache.
        self.probe_cache_threshold = probe_cache_threshold
        #: Whether a statement over a relation with two or more registered
        #: views may build one shared delta-propagation DAG instead of the
        #: per-view loop (see :mod:`repro.core.shared`).  Single-view
        #: statements never take the shared path either way, so their
        #: charges are unaffected by this flag.
        self.shared_maintenance = shared_maintenance
        #: Statement-scoped cross-group probe memo; non-``None`` only while
        #: a shared multi-view statement is in flight.
        self._shared_ctx = None
        #: One select-independent compiled join per (version, clause) —
        #: views differing only in projection share the entry (see
        #: ``MaintenancePlanner._shared_join``).
        self._compiled_join_cache: Dict[Tuple, object] = {}
        self.ledger = CostLedger(costs)
        self.network = Network(num_nodes, self.ledger)
        self.nodes: List[Node] = [
            Node(node_id, self.ledger, layout) for node_id in range(num_nodes)
        ]
        self.catalog = Catalog()
        #: Token registry + topology history (see :mod:`.membership`).
        #: Fixed-topology runs never touch it beyond construction.
        self.membership = ClusterMembership(num_nodes)
        #: High-water mark of ``num_nodes`` over the cluster's lifetime.
        #: Ledger cells are historical: a retired node id keeps its charges,
        #: so range checks bound against the peak, not the present.
        self.peak_num_nodes = num_nodes
        #: K-copy replication hooks; installed by
        #: :meth:`enable_replication`.  ``None`` (the default) costs one
        #: predicate per write and charges nothing — seed behavior exact.
        self.replicator: Optional["Replicator"] = None
        #: Fault injection + recovery; installed by
        #: :func:`repro.faults.attach_faults`.  ``None`` on the fault-free
        #: path, where every charge is bit-identical to the seed engine.
        self.faults: Optional["FaultController"] = None
        #: Stack of active undo scopes (innermost last).  Empty on the
        #: fault-free path: :meth:`_record_undo` is then a no-op.
        self._undo_logs: List["UndoLog"] = []
        #: Lazily constructed worker-pool handle (see ``workers`` above).
        self._parallel_engine: Optional["ParallelEngine"] = None
        #: Observability facade (tracer + metrics registry).  The shared
        #: :data:`repro.obs.DISABLED` singleton until
        #: :func:`repro.obs.attach_observability` arms a live one; the
        #: no-op tracer allocates nothing, so the fault-free hot path is
        #: unchanged (the equivalence suites pin this bit-for-bit).
        self.obs = DISABLED
        #: Runtime sanitizer mode (``sanitize=True`` or ``REPRO_SANITIZE=1``
        #: in the environment): swaps in a send-accounting network and runs
        #: the :mod:`repro.analysis.sanitizer` invariant checks after every
        #: statement.  Never charges the ledger — a sanitized run is
        #: bit-identical to an unsanitized one — but the per-statement
        #: checks cost real time; keep it off on the measurement path.
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self.sanitize = bool(sanitize)
        self._sanitizer = None
        if self.sanitize:
            from ..analysis.sanitizer import install

            self._sanitizer = install(self)
        #: Shared multi-view counters (partition passes, probe dedup); see
        #: :class:`repro.core.shared.MultiViewStats`.  Import is deferred to
        #: construction time, matching the other core-package hooks above.
        from ..core.shared import MultiViewStats
        from ..core.statistics import StatisticsCache

        self.multi_view_stats = MultiViewStats()
        #: Exact planner statistics, kept current by the write paths
        #: themselves (see :mod:`repro.core.statistics`); shared by every
        #: planner and advisor of this cluster.
        self.statistics = StatisticsCache(self)

    # ==================================================== parallel lifecycle

    def _parallel_gate(self) -> bool:
        """Whether parallel execution is admissible *right now*.

        The superstep engine is built on the bulk paths, so :meth:`_bulk_ok`
        must hold, plus a configured worker count.  Open undo scopes and
        replication stay serial (on the same bulk paths): a rollback and
        the replica write hooks mutate coordinator-side state — restored
        fragments, replica bags — that the refresh journal does not carry,
        so workers could not catch up with it.
        """
        return (
            self.workers is not None
            and self._bulk_ok()
            and self.replicator is None
            and not self._undo_logs
        )

    def _parallel_start(self) -> Optional["ParallelEngine"]:
        """The engine, forked and running — or ``None`` (serial statement).

        Called at statement entry.  When parallel execution is configured
        but currently inadmissible the pool is drained first, so no worker
        ever holds a shard the serial path is about to mutate behind its
        back.  Draining is free: the coordinator's node image is current at
        every superstep boundary, and a later start re-forks from it.
        """
        if self.workers is None:
            return None
        if not self._parallel_gate():
            self._drain_parallel()
            return None
        engine = self._parallel_engine
        if engine is None:
            from .parallel import ParallelEngine, fork_available

            if not fork_available():  # pragma: no cover - POSIX-only repo
                return None
            engine = ParallelEngine(
                self, self.workers, self.probe_cache_threshold
            )
            self._parallel_engine = engine
        if engine.broken:
            return None
        engine.start()
        return engine if engine.running else None

    def _parallel_running(self) -> Optional["ParallelEngine"]:
        """The engine, only if the pool is already alive and admissible.

        Used by mid-statement hooks (maintenance hops, view-delta writes):
        they never *start* a pool, so a statement that began serially stays
        serial throughout.
        """
        engine = self._parallel_engine
        if engine is not None and engine.running and self._parallel_gate():
            return engine
        return None

    def _drain_parallel(self) -> None:
        """Stop the worker pool (no-op when not running).  Loses nothing —
        worker shards are replicas of the coordinator's current image."""
        engine = self._parallel_engine
        if engine is not None and engine.running:
            engine.stop()

    def close(self) -> None:
        """Release external resources (the worker pool).  Idempotent; the
        cluster remains fully usable afterwards (serially, until the next
        eligible statement re-forks the pool)."""
        self._drain_parallel()

    def _views_parallel_safe(self, relation: str) -> bool:
        """Whether every view over ``relation`` maintains through the
        superstep engine.  Plain join views (optionally deferred) do;
        subclasses with bespoke apply paths (aggregate views mutate view
        fragments directly) drain and run serially instead."""
        from ..core.deferred import DeferredMaintainer
        from ..core.maintenance import JoinViewMaintainer

        for view in self.catalog.views_on(relation):
            maintainer = view.maintainer
            if isinstance(maintainer, DeferredMaintainer):
                maintainer = maintainer.inner
            if type(maintainer) is not JoinViewMaintainer:
                return False
        return True

    # ================================================================= DDL

    def create_relation(
        self,
        schema: Schema,
        partitioned_on: str,
        indexes: Sequence[Tuple[str, bool]] = (),
        spec: Optional[PartitioningSpec] = None,
    ) -> RelationInfo:
        """Create a hash-partitioned base relation on every node.

        ``indexes`` lists (column, clustered) local indexes to build on each
        fragment; a fragment may be clustered on at most one column.
        ``spec`` overrides the placement scheme: pass
        :class:`ConsistentHashPartitioning` (on the same column) to place
        rows on the membership token ring, making later ``add_node`` /
        ``remove_node`` calls relocate only the minimal key share.
        """
        _check_no_open_scope(self, "create_relation")
        self._drain_parallel()  # DDL reshapes shards: rebuild workers after
        if spec is None:
            spec = HashPartitioning(partitioned_on)
        elif getattr(spec, "column", partitioned_on) != partitioned_on:
            raise ValueError(
                f"spec partitions on {spec.column!r} but partitioned_on "
                f"says {partitioned_on!r}"
            )
        partitioner = self._bind_spec(spec, schema)
        info = RelationInfo(schema=schema, spec=spec, partitioner=partitioner)
        self.catalog.add_relation(info)
        for node in self.nodes:
            node.create_fragment(schema)
        for column, clustered in indexes:
            self.create_index(schema.name, column, clustered=clustered)
        return info

    def create_index(self, relation: str, column: str, clustered: bool = False) -> None:
        """Build a local index on ``relation.column`` at every node."""
        _check_no_open_scope(self, "create_index")
        self._drain_parallel()
        info = self.catalog.relation(relation)
        if column not in info.schema:
            raise KeyError(f"{relation!r} has no column {column!r}")
        if column in info.indexes:
            return
        for node in self.nodes:
            node.create_local_index(relation, column, clustered)
        info.indexes[column] = clustered
        # New indexes change the available access paths: invalidate every
        # version-keyed plan cache.
        self.catalog.bump_version()

    def has_index(self, relation: str, column: str) -> bool:
        return column in self.catalog.relation(relation).indexes

    def create_auxiliary_relation(
        self,
        base: str,
        on_column: str,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Callable[[Row], bool]] = None,
        name: Optional[str] = None,
    ) -> AuxiliaryRelationInfo:
        """Create AR_base: a selection/projection of ``base`` repartitioned
        on ``on_column`` with a clustered index on it (paper §2.1.2).

        ``columns`` trims the copy to the listed columns (``on_column`` is
        always kept); ``predicate`` keeps only matching base rows.  Existing
        base rows are copied in without cost charging (one-time build, like
        the paper's offline creation of orders_1/lineitem_1).
        """
        _check_no_open_scope(self, "create_auxiliary_relation")
        self._drain_parallel()
        base_info = self.catalog.relation(base)
        if on_column not in base_info.schema:
            raise KeyError(f"{base!r} has no column {on_column!r}")
        if base_info.is_partitioned_on(on_column):
            raise ValueError(
                f"{base!r} is already partitioned on {on_column!r}; "
                "the paper keeps no auxiliary relation in that case"
            )
        ar_name = name or f"AR_{base}_{on_column}"
        kept: Tuple[str, ...]
        if columns is None:
            kept = base_info.schema.column_names
        else:
            kept = tuple(columns)
            if on_column not in kept:
                kept = (on_column,) + kept
        ar_schema = base_info.schema.project(kept, name=ar_name)
        project = base_info.schema.projector(kept)
        spec = HashPartitioning(on_column)
        partitioner = spec.bind(ar_schema, self.num_nodes)
        info = AuxiliaryRelationInfo(
            name=ar_name,
            base=base,
            column=on_column,
            schema=ar_schema,
            partitioner=partitioner,
            columns=None if columns is None else kept,
            predicate=predicate,
            project=project,
        )
        self.catalog.add_auxiliary(info)
        for node in self.nodes:
            node.create_fragment(ar_schema)
            node.create_local_index(ar_name, on_column, clustered=True)
        # Backfill from the existing base contents (uncharged: offline build).
        self._write_placed(ar_name, info.derive(self.nodes))
        self._sync_replicas()
        return info

    def create_global_index(
        self,
        base: str,
        on_column: str,
        distributed_clustered: bool = False,
        name: Optional[str] = None,
    ) -> GlobalIndexInfo:
        """Create GI_base on ``base.on_column`` (paper §2.1.3).

        ``distributed_clustered`` asserts that every node's fragment of
        ``base`` is physically clustered on ``on_column``; it is validated
        against the declared local indexes.
        """
        _check_no_open_scope(self, "create_global_index")
        self._drain_parallel()
        base_info = self.catalog.relation(base)
        if on_column not in base_info.schema:
            raise KeyError(f"{base!r} has no column {on_column!r}")
        if base_info.is_partitioned_on(on_column):
            raise ValueError(
                f"{base!r} is already partitioned on {on_column!r}; "
                "the paper keeps no global index in that case"
            )
        if distributed_clustered and base_info.indexes.get(on_column) is not True:
            raise ValueError(
                f"a distributed clustered GI on {base}.{on_column} requires "
                "the base fragments to be clustered on that column "
                "(create the relation with a clustered local index first)"
            )
        gi_name = name or f"GI_{base}_{on_column}"
        info = GlobalIndexInfo(
            name=gi_name,
            base=base,
            column=on_column,
            distributed_clustered=distributed_clustered,
            key_position=base_info.schema.index_of(on_column),
            num_nodes=self.num_nodes,
        )
        self.catalog.add_global_index(info)
        for node in self.nodes:
            node.create_gi_partition(gi_name, base, on_column)
        # Backfill entries for existing base rows (uncharged: offline build).
        self._write_placed(gi_name, info.derive(self.nodes))
        return info

    def _bind_spec(self, spec: PartitioningSpec, schema: Schema):
        """Bind a partitioning spec against the current topology; consistent
        hashing binds to the membership's stable tokens, everything else to
        the dense node count."""
        if isinstance(spec, ConsistentHashPartitioning):
            return spec.bind(schema, self.num_nodes, tokens=self.membership.tokens)
        return spec.bind(schema, self.num_nodes)

    def create_view_storage(
        self, schema: Schema, spec: PartitioningSpec
    ) -> BoundRoundRobin:
        """Create the view's fragments on every node; returns the bound
        partitioner.  Hash-partitioned views (modulo or ring) get an index
        on the partitioning column (paper assumption 3)."""
        self._drain_parallel()
        partitioner = self._bind_spec(spec, schema)
        for node in self.nodes:
            node.create_fragment(schema)
        if isinstance(spec, (HashPartitioning, ConsistentHashPartitioning)):
            for node in self.nodes:
                node.create_local_index(schema.name, spec.column, clustered=False)
        return partitioner

    def create_join_view(self, definition, method="auxiliary", **kwargs) -> ViewInfo:
        """Define and register a maintained join view.

        ``definition`` is a :class:`repro.core.JoinViewDefinition`;
        ``method`` one of ``"naive"``, ``"auxiliary"``, ``"global_index"``
        (or a :class:`repro.core.MaintenanceMethod`).  Creates any missing
        auxiliary relations / global indexes the method requires.  Imported
        lazily to keep the cluster layer free of a dependency cycle on the
        maintenance layer.
        """
        from ..core import define_join_view

        _check_no_open_scope(self, "create_join_view")
        info = define_join_view(self, definition, method=method, **kwargs)
        self._sync_replicas()
        return info

    def create_view_from_sql(self, sql: str, method="auxiliary", **kwargs) -> ViewInfo:
        """CREATE VIEW in the paper's SQL dialect (see :mod:`repro.sql`).

        >>> cluster.create_view_from_sql(
        ...     "create view JV as select * from A, B "
        ...     "where A.c = B.d partitioned on A.e;",
        ...     method="auxiliary",
        ... )  # doctest: +SKIP
        """
        from ..sql import parse_join_view

        _check_no_open_scope(self, "create_view_from_sql")
        schemas = {name: info.schema for name, info in self.catalog.relations.items()}
        definition = parse_join_view(sql, schemas)
        return self.create_join_view(definition, method=method, **kwargs)

    # ================================================================ drops

    def drop_view(self, name: str) -> None:
        """Drop a materialized view: its fragments, registration, and the
        serves-views links of the structures it used.  The structures
        themselves stay (other views may share them); drop them separately
        when unreferenced."""
        _check_no_open_scope(self, "drop_view")
        self._drain_parallel()
        self.catalog.remove_view(name)
        for node in self.nodes:
            if node.has_fragment(name):
                node.drop_fragment(name)
        self._sync_replicas()

    def drop_auxiliary_relation(self, name: str, force: bool = False) -> None:
        """Drop an auxiliary relation.  Refuses while views still rely on
        it unless ``force`` is given (after which those views would fall
        back to planning errors on their next delta — the caller owns it).
        """
        _check_no_open_scope(self, "drop_auxiliary_relation")
        self._drain_parallel()
        self.catalog.remove_auxiliary(name, force=force)
        for node in self.nodes:
            if node.has_fragment(name):
                node.drop_fragment(name)
        self._sync_replicas()

    def drop_global_index(self, name: str, force: bool = False) -> None:
        """Drop a global index (same safety rule as auxiliary relations)."""
        _check_no_open_scope(self, "drop_global_index")
        self._drain_parallel()
        self.catalog.remove_global_index(name, force=force)
        for node in self.nodes:
            node.drop_gi_partition(name)

    # ==================================================== elastic membership

    def add_node(self) -> MigrationReport:
        """Grow the cluster online (see :func:`repro.cluster.membership.add_node`)."""
        from .membership import add_node

        return add_node(self)

    def remove_node(self, node_id: int) -> MigrationReport:
        """Gracefully shrink the cluster online (charged migration off the
        departing node, dense renumbering of the survivors)."""
        from .membership import remove_node

        return remove_node(self, node_id)

    def fail_over(self, node_id: int) -> MigrationReport:
        """Decommission a crashed node, restoring its data from replicas."""
        from .membership import fail_over

        return fail_over(self, node_id)

    def enable_replication(self, k: int = 2) -> Replicator:
        """Keep ``k - 1`` charged replica copies of every fragment on each
        owner's ring successors.

        The initial copies are built uncharged (an offline build, like the
        catalog's DDL backfills); from then on every primary write ships
        its rows to the targets as modeled SENDs plus INSERT-weight replica
        writes, all tagged :attr:`~repro.costs.Tag.REPLICA`.  Replication
        keeps execution serial (the worker-pool gate closes) so the hooks
        observe every write in-process.
        """
        if self.replicator is not None:
            raise RuntimeError("replication is already enabled")
        self._drain_parallel()
        replicator = Replicator(self, k)
        self.replicator = replicator
        self.membership.replication = k
        for node in self.nodes:
            node.replicator = replicator
        replicator.sync(charged=False)
        return replicator

    def disable_replication(self) -> None:
        """Drop every replica bag and detach the write hooks (uncharged
        bookkeeping; the bags were never part of the primary state)."""
        if self.replicator is None:
            return
        self.replicator = None
        self.membership.replication = 1
        for node in self.nodes:
            node.replicator = None
            for owner, name in node.replica_slots():
                node.drop_replica(owner, name)

    def _write_placed(self, name: str, batches: Iterable[Dict[int, list]]) -> None:
        """The one uncharged writer of offline builds: write each ``{node:
        items}`` batch as one bulk insert per node into ``name``'s fragment
        (rows) or, for a global index, its partition (``(key, grid)``
        pairs).  Batches apply in order, so each node receives exactly what
        per-row inserts would have written (DESIGN.md §14)."""
        is_gi = name in self.catalog.global_indexes
        for placed in batches:
            for node_id, items in placed.items():
                if is_gi:
                    self.nodes[node_id].gi_partition(name).insert_many(items)
                else:
                    self.nodes[node_id].fragment(name).insert_many(items)

    def _sync_replicas(self) -> None:
        """Re-converge replica bags after a DDL reshapes fragments
        (uncharged, mirroring the uncharged DDL backfills)."""
        if self.replicator is not None:
            self.replicator.sync(charged=False)

    def available_rows(self, name: str) -> List[Row]:
        """Every reachable row of ``name``; crashed nodes' shares are served
        from their replicas (charged FETCHes at the serving holder)."""
        from .membership import available_rows

        return available_rows(self, name)

    # ================================================================= DML

    def insert(self, relation: str, rows: Iterable[Row]) -> CostSnapshot:
        """Insert rows into a base relation, maintaining all views over it.

        Returns the cost snapshot of everything this statement caused.
        """
        with self.ledger.measure() as measured:
            self._apply(relation, inserts=list(rows), deletes=[])
        return measured.snapshot

    def delete(self, relation: str, rows: Iterable[Row]) -> CostSnapshot:
        """Delete the given rows (one stored instance each) from a base
        relation, maintaining all views over it."""
        with self.ledger.measure() as measured:
            self._apply(relation, inserts=[], deletes=list(rows))
        return measured.snapshot

    def update(
        self, relation: str, changes: Iterable[Tuple[Row, Row]]
    ) -> CostSnapshot:
        """Update rows: ``changes`` pairs (old_row, new_row).

        Modelled as delete+insert within one maintained statement, per the
        paper's treatment of updates.
        """
        pairs = list(changes)
        with self.ledger.measure() as measured:
            self._apply(
                relation,
                inserts=[new for _, new in pairs],
                deletes=[old for old, _ in pairs],
            )
        return measured.snapshot

    def _apply(self, relation: str, inserts: List[Row], deletes: List[Row]) -> None:
        """Dispatch one maintained statement.

        With a fault controller attached the statement runs inside an
        atomic undo scope and faults route through the recovery policy
        (rollback, queue, degrade); otherwise this is the seed engine's
        direct path, charge-for-charge identical.
        """
        if self.faults is not None:
            self.faults.run_statement(relation, inserts, deletes)
        else:
            self._execute_statement(relation, inserts, deletes)

    def _bulk_ok(self) -> bool:
        """Whether the batched engine runs this statement — the one gate
        for the bulk write paths here, the batched join hops in
        :mod:`repro.core.maintenance` and the shared multi-view DAG in
        :mod:`repro.core.shared`.

        Batching is charge-equivalent wherever operation order is
        immaterial (commutative ledger cells / network counters), which is
        everywhere except under a fault controller: injector answers are
        keyed to the call *sequence*, so faults keep the tuple-at-a-time
        reference engine.  Undo scopes and replication do not: a bulk write
        records one inverse per batch and hands the replica hook the whole
        batch.
        """
        return self.batch_execution and self.faults is None

    def _flush_stale_deferred(self, relation: str) -> None:
        """Refresh deferred views holding a *different* relation's delta
        before this statement's base writes land.

        The deferred correctness rule (:mod:`repro.core.deferred`) says a
        queued delta must never join against partner state from its
        future.  The wrapper's own relation-switch flush fires at
        maintenance time — after this statement's base writes — which is
        one write too late: the queued batch would join against a partner
        that already contains this statement's rows, and the statement's
        own delta would then count those pairs a second time.  Flushing
        here keeps the queued batch joined against exactly the partner
        state it observed.
        """
        for view in self.catalog.views_on(relation):
            maintainer = view.maintainer
            pending = getattr(maintainer, "_pending_relation", None)
            if pending is not None and pending != relation:
                maintainer.refresh()

    def _execute_statement(
        self, relation: str, inserts: List[Row], deletes: List[Row]
    ) -> None:
        """The paper's transaction sketch: base writes, co-updates, views."""
        engine = None
        if self.workers is not None:
            if self._views_parallel_safe(relation):
                engine = self._parallel_start()
            else:
                # A bespoke maintainer will mutate fragments outside the
                # superstep engine: drain so workers never go stale.
                self._drain_parallel()
        obs = self.obs
        with obs.span(
            "statement",
            relation=relation,
            inserts=len(inserts),
            deletes=len(deletes),
            engine=(
                "parallel" if engine is not None
                else "batched" if self._bulk_ok() else "reference"
            ),
        ) as stmt_span:
            if engine is not None:
                # Mutations run coordinator-side on the very same bulk
                # paths as the serial batched engine (charge-identical by
                # construction); the engine only accelerates the read hops
                # and collects per-statement transport telemetry here.
                engine.statements += 1
            self._flush_stale_deferred(relation)
            with obs.span("base_writes", relation=relation):
                info, delta = self._execute_base_writes(
                    relation, inserts, deletes
                )
            with obs.span("co_update_ars", relation=relation):
                self._co_update_auxiliaries(info, delta)
            with obs.span("co_update_gis", relation=relation):
                self._co_update_global_indexes(info, delta)
            # One shared delta-propagation DAG across all registered views
            # (falls back to the historical per-view loop for single-view
            # statements and every fault path — see repro.core.shared).
            from ..core.shared import maintain_views

            maintain_views(self, delta)
        if obs.enabled:
            # Latency hook point: the statement's wall time comes from the
            # span the tracer just closed, never from a clock read here.
            obs.observe_span_latency(stmt_span, kind="statement", relation=relation)
        if self._sanitizer is not None:
            self._sanitizer.check(f"statement on {relation!r}")

    def _parallel_journal(self):
        """The running engine's refresh journal, or ``None`` (serial run).

        The bulk mutation paths append every physical base/AR/GI write here
        so worker read servers can lazily catch up (see
        :class:`~repro.cluster.parallel.RefreshJournal`).  View-fragment
        writes are deliberately not journaled: no read op targets them.
        """
        engine = self._parallel_engine
        if engine is not None and engine.running:
            return engine.journal
        return None

    def _execute_base_writes(
        self, relation: str, inserts: List[Row], deletes: List[Row]
    ) -> Tuple[RelationInfo, Delta]:
        """Apply just the base-relation writes; returns the placed delta.

        Also the degraded-mode entry point: when an AR/GI node is down and
        the recovery policy trades freshness for availability, only this
        part runs now (see :meth:`repro.faults.FaultController.recover`).
        """
        info = self.catalog.relation(relation)
        victims = self._validate_deletes(info, deletes)
        for row in inserts:
            info.schema.check_row(row)
        delta = Delta(relation=relation)
        journal = self._parallel_journal()
        # Deletes first so an update whose new row equals another stored row
        # cannot delete the row it just inserted.
        for row, (home, rowid) in zip(deletes, victims):
            self._delete_row(home, relation, row, Tag.BASE, rowid)
            delta.deletes.append(PlacedRow(home, rowid, row))
            if journal is not None:
                journal.log_delete(home, relation, rowid, row, Tag.BASE)
        if inserts and self._bulk_ok():
            # Bulk path: group rows by home node (preserving per-home order,
            # so rowids match the per-tuple engine), then one insert_many per
            # node — one INSERT charge of count=n, same ledger cell sum.
            homes = [info.partitioner.node_of_row(row) for row in inserts]
            grouped: Dict[int, List[Row]] = {}
            for home, row in zip(homes, inserts):
                grouped.setdefault(home, []).append(row)
            rowid_lists = {
                home: self._insert_rows(home, relation, rows, Tag.BASE)
                for home, rows in grouped.items()
            }
            if journal is not None:
                for home, rows in grouped.items():
                    journal.log_insert_run(
                        home, relation, rowid_lists[home], rows, Tag.BASE
                    )
            rowid_iters = {
                home: iter(rowids) for home, rowids in rowid_lists.items()
            }
            for home, row in zip(homes, inserts):
                delta.inserts.append(PlacedRow(home, next(rowid_iters[home]), row))
        else:
            for row in inserts:
                home = info.partitioner.node_of_row(row)
                rowid = self.nodes[home].insert(relation, row, Tag.BASE)
                delta.inserts.append(PlacedRow(home, rowid, row))
                self._record_undo(
                    lambda f=self.nodes[home].fragment(relation), r=rowid: f.delete(r),
                    node=home, tag=Tag.BASE, writes=1,
                    description=f"undo {relation} insert",
                )
        return info, delta

    def _insert_rows(
        self, home: int, name: str, rows: List[Row], tag: Tag
    ) -> List[int]:
        """One bulk fragment write and, inside an undo scope, its one
        inverse: the batch's rowids, deleted newest first on rollback."""
        node = self.nodes[home]
        rowids = node.insert_many(name, rows, tag)
        if self._undo_logs:
            self._undo_logs[-1].record(
                node.fragment(name).delete_many,
                node=home, tag=tag, writes=len(rowids), args=(rowids,),
            )
        return rowids

    def _delete_row(
        self, home: int, name: str, row: Row, tag: Tag,
        rowid: Optional[int] = None,
    ) -> int:
        """One fragment delete (of ``rowid`` when the caller located the
        victim already) and, inside an undo scope, its inverse: the row
        revived under its original rowid on rollback.  Raises ``KeyError``
        (recording nothing) when no copy is stored."""
        node = self.nodes[home]
        rowid = node.delete_matching(name, row, tag, rowid=rowid)
        if self._undo_logs:
            self._undo_logs[-1].record(
                node.fragment(name).restore,
                node=home, tag=tag, writes=1, args=(rowid, row),
            )
        return rowid

    def _record_undo(
        self,
        undo: Callable[[], None],
        node: Optional[int] = None,
        tag: Optional[Tag] = None,
        writes: int = 0,
        description: str = "",
    ) -> None:
        """Record an inverse operation in the innermost undo scope.

        A no-op when no scope is active — the fault-free engine pays one
        truthiness test per mutation and nothing else.
        """
        if self._undo_logs:
            self._undo_logs[-1].record(
                undo, node=node, tag=tag, writes=writes, description=description
            )

    def _validate_deletes(
        self, info: RelationInfo, deletes: List[Row]
    ) -> List[Tuple[int, int]]:
        """Locate every requested delete's victim, or reject the statement.

        Checked before any mutation so a failing statement leaves the
        cluster unchanged (statement atomicity).  Multiplicity-aware: the
        home fragment must hold at least as many copies of each row as the
        statement deletes.  Uncharged — this is validation, not execution.

        Returns the ``(home node, rowid)`` each entry of ``deletes`` will
        remove, so the base deletes search for nothing again.
        """
        homes: Dict[Row, int] = {}
        for row in deletes:
            if row not in homes:
                info.schema.check_row(row)
                homes[row] = info.partitioner.node_of_row(row)
        rowids = self._locate_victims(
            info.name, [(homes[row], row) for row in deletes]
        )
        for row, rowid in zip(deletes, rowids):
            if rowid is None:
                available = sum(
                    1 for other, found in zip(deletes, rowids)
                    if other == row and found is not None
                )
                raise KeyError(
                    f"cannot delete {deletes.count(row)} instance(s) of {row!r} "
                    f"from {info.name!r}: node {homes[row]} holds {available}; "
                    "statement rolled back"
                )
        return [(homes[row], rowid) for row, rowid in zip(deletes, rowids)]

    def _locate_victims(
        self, name: str, targets: Sequence[Tuple[int, Row]]
    ) -> List[Optional[int]]:
        """The rowid each of a run of ``(node, row)`` deletes on ``name``
        will remove, aligned with ``targets``; ``None`` where the fragment
        holds fewer copies of the row than the run deletes.

        One :meth:`~repro.storage.IndexedHeap.locate` call per touched
        fragment, so locating costs the statement's size (plus the index
        entries under its keys), not the fragment's.
        """
        wanted: Dict[int, Dict[Row, int]] = {}
        for node, row in targets:
            rows = wanted.setdefault(node, {})
            rows[row] = rows.get(row, 0) + 1
        supply = {
            (node, row): iter(rowids)
            for node, rows in wanted.items()
            for row, rowids in self.nodes[node].fragment(name).locate(rows).items()
        }
        none_left: Iterator[int] = iter(())
        return [next(supply.get(target, none_left), None) for target in targets]

    def _co_update_auxiliaries(self, info: RelationInfo, delta: Delta) -> None:
        """Propagate the base delta into every AR of the relation.

        Each delta tuple is redistributed (one SEND) to the node its AR
        partitioning key hashes to and written there — the "update auxiliary
        relation (cheap)" line of the paper's transaction sketch.
        """
        if self._bulk_ok():
            self._co_update_auxiliaries_bulk(info, delta)
            return
        for aux in self.catalog.auxiliaries_of(info.name):
            for placed in delta.deletes:
                image = aux.image_of(placed.row)
                if image is None:
                    continue
                dest = aux.partitioner.node_of_row(image)
                deliveries = self.network.send(placed.node, dest, Tag.MAINTAIN)
                for _ in range(deliveries):
                    try:
                        self._delete_row(dest, aux.name, image, Tag.MAINTAIN)
                    except KeyError:
                        # A duplicated (un-deduped) delete found nothing: the
                        # first copy already removed the row.
                        break
            for placed in delta.inserts:
                image = aux.image_of(placed.row)
                if image is None:
                    continue
                dest = aux.partitioner.node_of_row(image)
                deliveries = self.network.send(placed.node, dest, Tag.MAINTAIN)
                for _ in range(deliveries):
                    rowid = self.nodes[dest].insert(aux.name, image, Tag.MAINTAIN)
                    self._record_undo(
                        lambda f=self.nodes[dest].fragment(aux.name),
                        r=rowid: f.delete(r),
                        node=dest, tag=Tag.MAINTAIN, writes=1,
                        description=f"undo {aux.name} insert",
                    )

    def _co_update_auxiliaries_bulk(self, info: RelationInfo, delta: Delta) -> None:
        """Bulk AR co-update: coalesced sends, one insert_many per node.

        Charge-identical to the per-tuple loop (fault-free deliveries are
        always 1, ledger cells are commutative sums) and content-identical
        (per-destination row order is preserved, so rowids match).
        """
        for aux in self.catalog.auxiliaries_of(info.name):
            send_counts: Dict[Tuple[int, int], int] = {}
            routed_deletes: List[Tuple[int, Row]] = []
            for placed in delta.deletes:
                image = aux.image_of(placed.row)
                if image is None:
                    continue
                dest = aux.partitioner.node_of_row(image)
                link = (placed.node, dest)
                send_counts[link] = send_counts.get(link, 0) + 1
                routed_deletes.append((dest, image))
            grouped_inserts: Dict[int, List[Row]] = {}
            for placed in delta.inserts:
                image = aux.image_of(placed.row)
                if image is None:
                    continue
                dest = aux.partitioner.node_of_row(image)
                link = (placed.node, dest)
                send_counts[link] = send_counts.get(link, 0) + 1
                grouped_inserts.setdefault(dest, []).append(image)
            for (src, dst), count in send_counts.items():
                self.network.send_many(src, dst, count, Tag.MAINTAIN)
            journal = self._parallel_journal()
            located = self._locate_victims(aux.name, routed_deletes)
            for (dest, image), rowid in zip(routed_deletes, located):
                try:
                    rowid = self._delete_row(
                        dest, aux.name, image, Tag.MAINTAIN, rowid
                    )
                except KeyError:
                    # A duplicated (un-deduped) delete found nothing: the
                    # first copy already removed the row.
                    continue
                if journal is not None:
                    journal.log_delete(dest, aux.name, rowid, image, Tag.MAINTAIN)
            for dest, images in grouped_inserts.items():
                rowids = self._insert_rows(dest, aux.name, images, Tag.MAINTAIN)
                if journal is not None:
                    journal.log_insert_run(
                        dest, aux.name, rowids, images, Tag.MAINTAIN
                    )

    def _co_update_global_indexes(self, info: RelationInfo, delta: Delta) -> None:
        """Propagate the base delta into every GI of the relation."""
        if self._bulk_ok():
            self._co_update_global_indexes_bulk(info, delta)
            return
        for gi in self.catalog.global_indexes_of(info.name):
            for placed in delta.deletes:
                key = placed.row[gi.key_position]
                dest = gi.home_node(key)
                grid = GlobalRowId(placed.node, placed.rowid)
                deliveries = self.network.send(placed.node, dest, Tag.MAINTAIN)
                for _ in range(deliveries):
                    try:
                        self.nodes[dest].gi_delete(gi.name, key, grid, Tag.MAINTAIN)
                    except KeyError:
                        break  # duplicated delete: the entry is already gone
                    self._record_undo(
                        lambda p=self.nodes[dest].gi_partition(gi.name),
                        k=key, g=grid: p.insert(k, g),
                        node=dest, tag=Tag.MAINTAIN, writes=1,
                        description=f"restore {gi.name} entry",
                    )
            for placed in delta.inserts:
                key = placed.row[gi.key_position]
                dest = gi.home_node(key)
                grid = GlobalRowId(placed.node, placed.rowid)
                deliveries = self.network.send(placed.node, dest, Tag.MAINTAIN)
                for _ in range(deliveries):
                    self.nodes[dest].gi_insert(gi.name, key, grid, Tag.MAINTAIN)
                    self._record_undo(
                        lambda p=self.nodes[dest].gi_partition(gi.name),
                        k=key, g=grid: p.delete(k, g),
                        node=dest, tag=Tag.MAINTAIN, writes=1,
                        description=f"undo {gi.name} entry",
                    )

    def _co_update_global_indexes_bulk(self, info: RelationInfo, delta: Delta) -> None:
        """Bulk GI co-update: coalesced sends, one entry-batch per home node
        (and, inside an undo scope, one inverse per entry batch)."""
        undo = self._undo_logs[-1] if self._undo_logs else None
        for gi in self.catalog.global_indexes_of(info.name):
            send_counts: Dict[Tuple[int, int], int] = {}
            routed_deletes: List[Tuple[int, object, GlobalRowId]] = []
            for placed in delta.deletes:
                key = placed.row[gi.key_position]
                dest = gi.home_node(key)
                link = (placed.node, dest)
                send_counts[link] = send_counts.get(link, 0) + 1
                routed_deletes.append((dest, key, GlobalRowId(placed.node, placed.rowid)))
            grouped_inserts: Dict[int, List[Tuple[object, GlobalRowId]]] = {}
            for placed in delta.inserts:
                key = placed.row[gi.key_position]
                dest = gi.home_node(key)
                link = (placed.node, dest)
                send_counts[link] = send_counts.get(link, 0) + 1
                grouped_inserts.setdefault(dest, []).append(
                    (key, GlobalRowId(placed.node, placed.rowid))
                )
            for (src, dst), count in send_counts.items():
                self.network.send_many(src, dst, count, Tag.MAINTAIN)
            journal = self._parallel_journal()
            for dest, key, grid in routed_deletes:
                try:
                    self.nodes[dest].gi_delete(gi.name, key, grid, Tag.MAINTAIN)
                except KeyError:
                    continue  # duplicated delete: the entry is already gone
                if journal is not None:
                    journal.log_gi_delete(dest, gi.name, key, grid, Tag.MAINTAIN)
                if undo is not None:
                    undo.record(
                        self.nodes[dest].gi_partition(gi.name).insert,
                        node=dest, tag=Tag.MAINTAIN, writes=1, args=(key, grid),
                    )
            for dest, entries in grouped_inserts.items():
                gi_partition = self.nodes[dest].gi_partition(gi.name)
                gi_partition.insert_many(entries)
                self.ledger.charge(dest, Op.INSERT, Tag.MAINTAIN, count=len(entries))
                if undo is not None:
                    undo.record(
                        gi_partition.delete_many, node=dest, tag=Tag.MAINTAIN,
                        writes=len(entries), args=(entries,),
                    )
                if journal is not None:
                    journal.log_gi_insert_run(dest, gi.name, entries, Tag.MAINTAIN)

    # ============================================== view delta application

    def apply_view_delta(
        self,
        view: ViewInfo,
        inserts: Sequence[Tuple[int, Row]],
        deletes: Sequence[Tuple[int, Row]],
    ) -> None:
        """Route computed view-delta rows from their join sites to the
        view's home nodes and write them there (tagged VIEW).

        For a hash-partitioned view each row goes to one node; deletions
        locate the victim through the view's index on the partitioning
        column.  For a round-robin view inserts spread across nodes and
        deletions must search node by node (there is no placement to
        exploit — the paper's "(b)" variants).
        """
        name = view.name
        if self._bulk_ok():
            # View writes always run coordinator-side (workers never read
            # view fragments, so they are not journaled either): a parallel
            # run takes exactly this bulk path, charge-identical to serial.
            with self.obs.span(
                "view_write", view=name, path="bulk",
                inserts=len(inserts), deletes=len(deletes),
            ):
                self._apply_view_delta_bulk(view, inserts, deletes)
            return
        with self.obs.span(
            "view_write", view=name, path="reference",
            inserts=len(inserts), deletes=len(deletes),
        ):
            self._apply_view_delta_per_tuple(view, inserts, deletes)

    def _apply_view_delta_per_tuple(
        self,
        view: ViewInfo,
        inserts: Sequence[Tuple[int, Row]],
        deletes: Sequence[Tuple[int, Row]],
    ) -> None:
        """The tuple-at-a-time reference path of :meth:`apply_view_delta`."""
        partitioner = view.partitioner
        name = view.name
        for source, row in deletes:
            if isinstance(partitioner, BoundRoundRobin):
                self._round_robin_delete(view, source, row)
            else:
                dest = partitioner.node_of_row(row)
                deliveries = self.network.send(source, dest, Tag.VIEW)
                for _ in range(deliveries):
                    try:
                        self._delete_row(dest, name, row, Tag.VIEW)
                    except KeyError:
                        break  # duplicated delete: first copy already won
        for source, row in inserts:
            dest = partitioner.node_of_row(row)
            deliveries = self.network.send(source, dest, Tag.VIEW)
            for _ in range(deliveries):
                rowid = self.nodes[dest].insert(name, row, Tag.VIEW)
                self._record_undo(
                    lambda f=self.nodes[dest].fragment(name), r=rowid: f.delete(r),
                    node=dest, tag=Tag.VIEW, writes=1,
                    description=f"undo {name} insert",
                )

    def _apply_view_delta_bulk(
        self,
        view: ViewInfo,
        inserts: Sequence[Tuple[int, Row]],
        deletes: Sequence[Tuple[int, Row]],
    ) -> None:
        """Bulk view-delta application: coalesced sends, one insert_many per
        destination fragment.

        Round-robin deletes stay per-row (their node-by-node search stops at
        the first match, so their cost depends on *where* each victim lives);
        everything else groups.  Destination computation runs in statement
        order, which keeps the stateful round-robin insert placement
        identical to the per-tuple engine.
        """
        partitioner = view.partitioner
        name = view.name
        if isinstance(partitioner, BoundRoundRobin):
            for source, row in deletes:
                self._round_robin_delete(view, source, row)
        else:
            send_counts: Dict[Tuple[int, int], int] = {}
            routed: List[Tuple[int, Row]] = []
            for source, row in deletes:
                dest = partitioner.node_of_row(row)
                link = (source, dest)
                send_counts[link] = send_counts.get(link, 0) + 1
                routed.append((dest, row))
            for (src, dst), count in send_counts.items():
                self.network.send_many(src, dst, count, Tag.VIEW)
            located = self._locate_victims(name, routed)
            for (dest, row), rowid in zip(routed, located):
                try:
                    self._delete_row(dest, name, row, Tag.VIEW, rowid)
                except KeyError:
                    pass  # duplicated delete: first copy already won
        if inserts:
            send_counts = {}
            grouped: Dict[int, List[Row]] = {}
            for source, row in inserts:
                dest = partitioner.node_of_row(row)
                link = (source, dest)
                send_counts[link] = send_counts.get(link, 0) + 1
                grouped.setdefault(dest, []).append(row)
            for (src, dst), count in send_counts.items():
                self.network.send_many(src, dst, count, Tag.VIEW)
            for dest, rows in grouped.items():
                self._insert_rows(dest, name, rows, Tag.VIEW)

    def _round_robin_delete(self, view: ViewInfo, source: int, row: Row) -> None:
        for node in self.nodes:
            self.network.send(source, node.node_id, Tag.VIEW)
            fragment = node.fragment(view.name)
            self.ledger.charge(node.node_id, Op.SEARCH, Tag.VIEW)
            found = fragment.locate({row: 1}).get(row)
            if found:
                rowid = found[0]
                node.delete_by_rowid(view.name, rowid, Tag.VIEW)
                self._record_undo(
                    lambda f=fragment, r=rowid, t=row: f.restore(r, t),
                    node=node.node_id, tag=Tag.VIEW, writes=1,
                    description=f"restore {view.name} delete",
                )
                return
        raise KeyError(f"view {view.name!r} holds no tuple equal to {row!r}")

    # ================================================================ reads

    def scan_relation(self, name: str) -> List[Row]:
        """All rows of a base relation / AR across nodes (uncharged)."""
        rows: List[Row] = []
        for node in self.nodes:
            if node.has_fragment(name):
                rows.extend(node.scan(name))
        return rows

    def view_rows(self, name: str) -> List[Row]:
        """The materialized contents of a view across nodes (uncharged)."""
        self.catalog.view(name)
        return self.scan_relation(name)

    def fragment_sizes(self, name: str) -> Dict[int, int]:
        """Tuple count of each node's fragment of ``name``."""
        return {
            node.node_id: len(node.fragment(name).table)
            for node in self.nodes
            if node.has_fragment(name)
        }

    def relation_pages(self, name: str) -> int:
        """Total pages of a relation across all fragments."""
        return sum(
            node.fragment_pages(name) for node in self.nodes if node.has_fragment(name)
        )

    def storage_tuples(self) -> Dict[str, int]:
        """Tuples stored per catalog object — the space-overhead comparison
        of naive (none) vs GI (entries) vs AR (copies)."""
        usage: Dict[str, int] = {}
        for name in self.catalog.relations:
            usage[name] = len(self.scan_relation(name))
        for name in self.catalog.auxiliaries:
            usage[name] = len(self.scan_relation(name))
        for name, gi in self.catalog.global_indexes.items():
            usage[name] = sum(len(node.gi_partition(name)) for node in self.nodes)
        for name in self.catalog.views:
            usage[name] = len(self.scan_relation(name))
        return usage

    # ========================================================== transactions

    def transaction(self) -> "Transaction":
        """Scope several DML statements into one measured transaction."""
        from .transactions import Transaction

        return Transaction(self)
