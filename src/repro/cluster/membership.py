"""Elastic membership: online node join/leave, replication, and failover.

The paper's experiments run on a fixed fleet of L data servers.  This
module drops that assumption while keeping the cost model honest — every
row that changes machines because the topology changed is shipped as a
modeled SEND (:attr:`~repro.costs.Tag.MIGRATE`) and written as a modeled
INSERT, through the same envelope vocabulary the superstep engine uses
(``handoff`` at the source, ``migrate`` at the destination).

Three design decisions keep the rest of the engine unchanged:

**Dense id renumbering.**  Node ids are always ``0..L-1``.  A join appends
id ``L``; a departure migrates the node's rows away and then renumbers the
ids above it down by one.  Every modulo-hash partitioner, broadcast loop,
and maintenance plan keeps working on the dense range, and a fixed-topology
run never executes any of this code — its ledger stays bit-identical to
the seed engine.

**Stable tokens.**  Consistent-hash ring points are keyed by per-node
*tokens* (:class:`ClusterMembership` issues one per join, never reused),
not by node ids.  Renumbering relabels ids but never moves a surviving
node's ring position, so a departure relocates only the departed node's
keys and a join only ~1/(L+1) of them (the minimal-movement property
``tests/test_partitioning.py`` pins).

**Replicas are bags.**  :class:`Replicator` keeps K-1 charged copies of
every fragment on the owner's ring successors ``(owner+1..owner+K-1) % L``.
A copy is a content bag (no indexes — it serves availability reads and
failover restores, never probes), so its maintenance bills exactly one
SEND plus one INSERT-weight write per replicated row change.  Failover
elects the first *live* successor, restores the lost fragments from its
bags, and replays any statements the crash left queued.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ..costs import Op, Tag
from ..faults.errors import MessageLost, NodeDown
from ..storage import GlobalRowId, Row
from .node import Node
from .parallel import run_ops_serial
from .partitioning import BoundConsistentHash, BoundRoundRobin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Cluster


# ============================================================== membership


@dataclass
class MembershipEvent:
    """One recorded topology change."""

    epoch: int
    kind: str        # "join" | "leave" | "failover"
    node: int        # node id in the *pre-change* id space
    token: int       # the stable token added or retired
    detail: str = ""


class ClusterMembership:
    """The cluster's view of who is in it: tokens, epoch, and history.

    ``tokens[i]`` is the stable identity of the node currently holding id
    ``i``.  Tokens are issued monotonically and never reused, so ring
    geometry derived from them survives any amount of churn.
    """

    def __init__(self, num_nodes: int, replication: int = 1) -> None:
        self.epoch = 0
        self.tokens: List[int] = list(range(num_nodes))
        self._next_token = num_nodes
        self.replication = replication
        self.events: List[MembershipEvent] = []

    def issue_token(self) -> int:
        token = self._next_token
        self._next_token += 1
        return token

    def replica_targets(self, owner: int, num_nodes: int, k: int) -> List[int]:
        """The ids holding copies of ``owner``'s fragments: the K-1 ring
        successors, in deterministic election order."""
        copies = min(k, num_nodes)
        return [(owner + i) % num_nodes for i in range(1, copies)]

    def record(self, kind: str, node: int, token: int, detail: str = "") -> MembershipEvent:
        self.epoch += 1
        event = MembershipEvent(self.epoch, kind, node, token, detail)
        self.events.append(event)
        return event


@dataclass
class MigrationReport:
    """What one topology change moved, restored, and re-synced."""

    kind: str
    epoch: int
    node: int                      # id in the pre-change space
    token: int
    moved: Dict[str, int] = field(default_factory=dict)
    restored: Dict[str, int] = field(default_factory=dict)
    gi_entries_deleted: int = 0
    gi_entries_inserted: int = 0
    replica_rows_synced: int = 0
    promoted: Optional[int] = None  # successor's post-change id (failover)
    replayed_statements: int = 0

    @property
    def moved_rows(self) -> int:
        return sum(self.moved.values())

    @property
    def restored_rows(self) -> int:
        return sum(self.restored.values())

    def summary(self) -> str:
        head = (
            f"{self.kind} of node {self.node} (token {self.token}, "
            f"epoch {self.epoch}): {self.moved_rows} row(s) migrated"
        )
        if self.restored:
            head += f", {self.restored_rows} restored from replicas"
        if self.gi_entries_deleted or self.gi_entries_inserted:
            head += (
                f", GI -{self.gi_entries_deleted}/+{self.gi_entries_inserted}"
            )
        if self.replica_rows_synced:
            head += f", {self.replica_rows_synced} replica row(s) re-synced"
        return head


# ============================================================== replication


class Replicator:
    """K-copy replication of every fragment onto ring successors.

    Hooked into :class:`~repro.cluster.node.Node`'s four fragment mutators:
    each successful primary write ships the same rows to the owner's K-1
    successor nodes (one charged SEND per row, tag ``REPLICA``) and applies
    them to the target's content bag (one charged INSERT-weight write per
    row).  The hook works per write *batch*: an ``insert_many`` of n rows
    costs one ``send_many``, one ``replica_apply`` and — only while an undo
    scope is open — one inverse per target, so rolled-back statements leave
    the copies exactly consistent.

    ``paused`` suspends the hooks while a membership change rearranges the
    primaries; :meth:`sync` then re-converges the copies by diffing every
    desired bag against the primary contents — only the difference ships.
    """

    def __init__(self, cluster: "Cluster", k: int = 2) -> None:
        if k < 2:
            raise ValueError("replication needs k >= 2 (k-1 copies)")
        self.cluster = cluster
        self.k = k
        self.paused = False
        #: ``replica_targets`` is a pure function of (owner, node count);
        #: the write hook asks on every primary write.
        self._targets: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    # ------------------------------------------------------------ routing

    def targets(self, owner: int, num_nodes: Optional[int] = None) -> Tuple[int, ...]:
        cluster = self.cluster
        count = cluster.num_nodes if num_nodes is None else num_nodes
        targets = self._targets.get((owner, count))
        if targets is None:
            targets = self._targets[(owner, count)] = tuple(
                cluster.membership.replica_targets(owner, count, self.k)
            )
        return targets

    def elect_successor(self, owner: int) -> Optional[int]:
        """The first *live* replica target — failover's deterministic
        promotion order."""
        faults = self.cluster.faults
        for candidate in self.targets(owner):
            if faults is None or not faults.injector.is_down(candidate):
                return candidate
        return None

    # ------------------------------------------------------------- writes

    def on_write(
        self, owner: int, name: str, action: str, rows: Sequence[Row], tag: Tag
    ) -> None:
        """Mirror one primary mutation onto every replica target (charged).

        Replica traffic never aborts the statement: the primary write has
        already happened (and its undo is recorded by the caller *after*
        this hook returns), so a dead or unreachable peer must degrade
        redundancy, not atomicity.  A skipped copy is re-converged by the
        charged :meth:`sync` that every failover and repair runs.
        """
        if self.paused or not rows:
            return
        cluster = self.cluster
        faults = cluster.faults
        count = len(rows)
        undo = cluster._undo_logs[-1] if cluster._undo_logs else None
        inverse = "del" if action == "ins" else "ins"
        # The one copy, shared by every target's inverse: the records
        # outlive the caller's list.
        kept = tuple(rows) if undo is not None else ()
        for target in self.targets(owner):
            if faults is not None and faults.injector.is_down(target):
                continue  # dead peer: degraded redundancy until failover
            try:
                cluster.network.send_many(owner, target, count, Tag.REPLICA)
            except (NodeDown, MessageLost):
                # The peer (or the owner itself) died under the send, or
                # the retry budget ran out: this copy goes stale.
                continue
            node = cluster.nodes[target]
            node.replica_apply(owner, name, action, rows, Tag.REPLICA)
            if undo is not None:
                undo.record(
                    node.replica_mirror, node=target, tag=Tag.REPLICA,
                    writes=count, args=(owner, name, inverse, kept),
                )

    # -------------------------------------------------------------- sync

    def _desired_slots(self) -> List[Tuple[int, int, str]]:
        """Every ``(owner, target, name)`` slot the current topology wants,
        in deterministic order."""
        cluster = self.cluster
        names = [name for name, _info in _partitioned_objects(cluster)]
        slots: List[Tuple[int, int, str]] = []
        for owner in range(cluster.num_nodes):
            for target in self.targets(owner):
                for name in names:
                    if cluster.nodes[owner].has_fragment(name):
                        slots.append((owner, target, name))
        return slots

    def sync(self, charged: bool = True) -> int:
        """Re-converge every replica bag with its primary; returns the
        number of rows shipped.

        ``charged=True`` (the steady-state path after a membership change)
        bills one SEND plus one INSERT-weight write per shipped row;
        ``charged=False`` is the offline build used when replication is
        first enabled or after an uncharged repair, mirroring the catalog's
        uncharged DDL backfills.
        """
        cluster = self.cluster
        desired = self._desired_slots()
        ops: List[Tuple[Any, ...]] = []
        shipped = 0
        for owner, target, name in desired:
            expected = Counter(cluster.nodes[owner].scan(name))
            bag = cluster.nodes[target].replica_bag(owner, name)
            for action, delta in (("del", bag - expected), ("ins", expected - bag)):
                if not delta:
                    continue
                rows = sorted(delta.elements(), key=repr)
                shipped += len(rows)
                if charged:
                    cluster.network.send_many(
                        owner, target, len(rows), Tag.REPLICA
                    )
                    ops.append(
                        ("replica_apply", target, owner, name, action, rows,
                         Tag.REPLICA)
                    )
                else:
                    cluster.nodes[target].replica_mirror(owner, name, action, rows)
        if ops:
            run_ops_serial(cluster, ops)
        # Retire bags no slot wants anymore (pure bookkeeping: the space was
        # never charged, only the writes into it were).
        wanted = {(target, owner, name) for owner, target, name in desired}
        for node in cluster.nodes:
            for owner, name in node.replica_slots():
                if (node.node_id, owner, name) not in wanted:
                    node.drop_replica(owner, name)
        return shipped


@contextmanager
def _replication_paused(replicator: Optional[Replicator]) -> Iterator[None]:
    if replicator is None:
        yield
        return
    previous = replicator.paused
    replicator.paused = True
    try:
        yield
    finally:
        replicator.paused = previous


# ========================================================== availability


def available_rows(cluster: "Cluster", name: str) -> List[Row]:
    """Every reachable row of fragment object ``name``.

    Live nodes serve their own fragments; for a crashed node the elected
    replica successor serves its bag instead — availability is *charged*
    (one FETCH per served row at the serving replica, tag ``QUERY``),
    because the replica read is part of the modeled system, unlike the
    auditor's free oracle reads.
    """
    faults = cluster.faults
    replicator = cluster.replicator
    rows: List[Row] = []
    for node in cluster.nodes:
        down = faults is not None and faults.injector.is_down(node.node_id)
        if not down:
            if node.has_fragment(name):
                rows.extend(node.scan(name))
            continue
        if replicator is None:
            raise NodeDown(
                f"node {node.node_id} is down and {name!r} is unreplicated"
            )
        holder = replicator.elect_successor(node.node_id)
        if holder is None:
            raise NodeDown(
                f"node {node.node_id} is down and every replica target of "
                f"{name!r} is down too"
            )
        served = cluster.nodes[holder].replica_rows(node.node_id, name)
        if served:
            cluster.ledger.charge(holder, Op.FETCH, Tag.QUERY, count=len(served))
        rows.extend(served)
    return rows


# ===================================================== migration internals


def _partitioned_objects(cluster: "Cluster") -> List[Tuple[str, object]]:
    """Every fragmented catalog object ``(name, info)``, deterministic order
    (relations, then auxiliaries, then views; each name-sorted)."""
    catalog = cluster.catalog
    objects: List[Tuple[str, object]] = []
    for name in sorted(catalog.relations):
        objects.append((name, catalog.relations[name]))
    for name in sorted(catalog.auxiliaries):
        objects.append((name, catalog.auxiliaries[name]))
    for name in sorted(catalog.views):
        objects.append((name, catalog.views[name]))
    return objects


def _require_elastic_views(
    cluster: "Cluster", operation: str, shrinking: bool = False
) -> None:
    """Membership changes support plain join views (optionally deferred).
    Aggregate views own their fragments' layout (a bespoke ``_group``
    index a joining node would lack), so they take part only when the
    cluster ``shrinking``: survivors keep their fragments and the group
    hash rebinds to the smaller node count."""
    from ..core.aggregates import AggregateViewMaintainer
    from ..core.deferred import DeferredMaintainer
    from ..core.maintenance import JoinViewMaintainer

    allowed = (
        (JoinViewMaintainer, AggregateViewMaintainer)
        if shrinking else (JoinViewMaintainer,)
    )
    for name in sorted(cluster.catalog.views):
        maintainer = cluster.catalog.views[name].maintainer
        if isinstance(maintainer, DeferredMaintainer):
            maintainer = maintainer.inner
        if type(maintainer) not in allowed:
            raise NotImplementedError(
                f"{operation}: view {name!r} uses a bespoke maintainer "
                f"({type(maintainer).__name__}); {operation} supports "
                + ("plain and aggregate" if shrinking else "plain")
                + " join views only"
            )


def _check_no_open_scope(cluster: "Cluster", operation: str) -> None:
    if cluster._undo_logs:
        raise RuntimeError(
            f"{operation} cannot run inside an open transaction scope"
        )


def _flush_deferred(cluster: "Cluster") -> None:
    """Graceful membership changes refresh deferred views first, so no
    queued delta references the old topology."""
    from ..core.deferred import DeferredMaintainer

    for name in sorted(cluster.catalog.views):
        maintainer = cluster.catalog.views[name].maintainer
        if isinstance(maintainer, DeferredMaintainer):
            maintainer.flush_if_stale()


def _remap_deferred(cluster: "Cluster", id_map: Dict[int, int], fallback: int) -> None:
    """Failover cannot flush (the producer is gone): rehome queued
    placements instead.  The promoted successor inherits the lost node's
    placements — it holds the replica of everything that node produced."""
    from ..core.deferred import DeferredMaintainer

    for name in sorted(cluster.catalog.views):
        maintainer = cluster.catalog.views[name].maintainer
        if isinstance(maintainer, DeferredMaintainer):
            maintainer.remap_nodes(id_map, fallback)


def _rebind(info: object, num_nodes: int, tokens: Sequence[int]) -> object:
    """A partitioner for the post-change topology (new id space).

    Not installed by the caller until moves are planned: placements are
    computed in the new space while fragments still sit in the old one.
    """
    partitioner = info.partitioner  # type: ignore[attr-defined]
    if isinstance(partitioner, BoundConsistentHash):
        return partitioner.rebind(num_nodes, tokens=tokens)
    return cast(object, partitioner.rebind(num_nodes))


def _plan_moves(
    cluster: "Cluster",
    name: str,
    bound: object,
    old_of_new: Dict[int, int],
    survivors: FrozenSet[int],
    skip: Optional[int],
) -> List[Tuple[int, int, Row, int]]:
    """Rows that must change nodes under ``bound``: ``(src, rowid, row,
    dst)`` in scan order, all ids in the *current* (pre-renumber) space.

    Round-robin fragments have no placement function to violate, so
    surviving nodes keep their rows; only a departing node's rows are
    re-dealt through the (rebound) cursor.
    """
    moves: List[Tuple[int, int, Row, int]] = []
    round_robin = isinstance(bound, BoundRoundRobin)
    node_of_row = bound.node_of_row  # type: ignore[attr-defined]
    for node in cluster.nodes:
        src = node.node_id
        if src == skip or not node.has_fragment(name):
            continue
        if round_robin and src in survivors:
            continue
        for rowid, row in list(node.fragment(name).table.scan()):
            dst = old_of_new[node_of_row(row)]
            if dst != src:
                moves.append((src, rowid, row, dst))
    return moves


def _execute_moves(
    cluster: "Cluster",
    name: str,
    moves: List[Tuple[int, int, Row, int]],
    tag: Tag,
) -> int:
    """Ship planned moves: per (src, dst) link, N charged SENDs, a
    ``handoff`` (INSERT-weight delete of the known rowids) at the source,
    and a ``migrate`` (insert_many) at the destination."""
    if not moves:
        return 0
    links: Dict[Tuple[int, int], List[Tuple[int, Row]]] = {}
    for src, rowid, row, dst in moves:
        links.setdefault((src, dst), []).append((rowid, row))
    ops: List[Tuple[Any, ...]] = []
    for (src, dst), entries in links.items():
        cluster.network.send_many(src, dst, len(entries), tag)
        ops.append(("handoff", src, name, [rowid for rowid, _ in entries], tag))
        ops.append(("migrate", dst, name, [row for _, row in entries], tag))
    run_ops_serial(cluster, ops)
    return len(moves)


def _execute_restores(
    cluster: "Cluster",
    name: str,
    source: int,
    assignments: List[Tuple[int, Row]],
    tag: Tag,
) -> int:
    """Re-create a dead node's rows from the elected replica: the holder
    ships each row to its new home (charged SEND + ``migrate`` insert)."""
    if not assignments:
        return 0
    by_dst: Dict[int, List[Row]] = {}
    for dst, row in assignments:
        by_dst.setdefault(dst, []).append(row)
    ops: List[Tuple[Any, ...]] = []
    for dst, rows in by_dst.items():
        cluster.network.send_many(source, dst, len(rows), tag)
        ops.append(("migrate", dst, name, rows, tag))
    run_ops_serial(cluster, ops)
    return len(assignments)


def _renumber(cluster: "Cluster", removed: int) -> Dict[int, int]:
    """Collapse node ids back to ``0..L-2`` after ``removed`` departs.

    Returns the old→new id map for surviving nodes.  Pure relabeling —
    no data moves here, so nothing is charged.
    """
    id_map = {
        old: (old if old < removed else old - 1)
        for old in range(cluster.num_nodes)
        if old != removed
    }
    departing = cluster.nodes.pop(removed)
    departing.replicator = None
    for node in cluster.nodes:
        if node.node_id > removed:
            node.node_id -= 1
        node.remap_replica_owners(id_map)
    cluster.num_nodes -= 1
    cluster.network.num_nodes -= 1
    cluster.membership.tokens.pop(removed)
    if cluster.faults is not None:
        injector = cluster.faults.injector
        injector.forget(removed)
        injector.remap_nodes(id_map)
    return id_map


def _remap_global_indexes(
    cluster: "Cluster", id_map: Dict[int, int], tag: Tag
) -> Tuple[int, int]:
    """Bring every global index to the new topology (runs in the *new* id
    space, after any renumbering).

    Relabeling a surviving entry's grid owner is uncharged metadata.  Real
    writes — purging entries that referenced the departed node's rows and
    re-deriving entries whose key now homes on a different node (the price
    of modulo-homed GIs under elasticity) — go through the ``gi_del`` /
    ``gi_ins`` envelopes with one modeled SEND from the row's holder to the
    entry's home, exactly like the maintenance path.
    """
    deleted = inserted = 0
    for name in sorted(cluster.catalog.global_indexes):
        gi = cluster.catalog.global_indexes[name]
        gi.num_nodes = cluster.num_nodes
        # Pass 1 (uncharged relabel): rewrite surviving grid owners to their
        # new ids; entries owned by the departed node leave the partition
        # here but are billed below as stale deletes.
        purged: List[Tuple[int, object, GlobalRowId]] = []
        for node in cluster.nodes:
            try:
                partition = node.gi_partition(name)
            except KeyError:
                continue
            survivors: List[Tuple[object, GlobalRowId]] = []
            for key, grid in partition.entries():
                if grid.node in id_map:
                    survivors.append(
                        (key, GlobalRowId(id_map[grid.node], grid.rowid))
                    )
                else:
                    purged.append((node.node_id, key, grid))
            partition.clear()
            partition.insert_many(survivors)
        for home, _key, _grid in purged:
            # The home node purges a dead entry on its own authority (it
            # learned of the departure from the membership announcement), so
            # there is no SEND — just the write.
            cluster.ledger.charge(home, Op.INSERT, tag)
        deleted += len(purged)
        # Pass 2 (charged diff): expected entry set under the new homes and
        # the post-migration rowids vs. what the partitions store.
        expected: Counter[Tuple[int, object, int, int]] = Counter()
        for node in cluster.nodes:
            if not node.has_fragment(gi.base):
                continue
            for rowid, row in node.fragment(gi.base).table.scan():
                key = row[gi.key_position]
                expected[(gi.home_node(key), key, node.node_id, rowid)] += 1
        actual: Counter[Tuple[int, object, int, int]] = Counter()
        for node in cluster.nodes:
            try:
                partition = node.gi_partition(name)
            except KeyError:
                continue
            for key, grid in partition.entries():
                actual[(node.node_id, key, grid.node, grid.rowid)] += 1
        stale = sorted((actual - expected).elements(), key=repr)
        fresh = sorted((expected - actual).elements(), key=repr)
        ops: List[Tuple[Any, ...]] = []
        for home, key, owner, rowid in stale:
            cluster.network.send_many(owner, home, 1, tag)
            ops.append(
                ("gi_del", home, name, key, GlobalRowId(owner, rowid), tag, False)
            )
        for home, key, owner, rowid in fresh:
            cluster.network.send_many(owner, home, 1, tag)
            ops.append(
                ("gi_ins", home, name, [(key, GlobalRowId(owner, rowid))], tag)
            )
        if ops:
            run_ops_serial(cluster, ops)
        deleted += len(stale)
        inserted += len(fresh)
    return deleted, inserted


def _provision_node(cluster: "Cluster", node: Node) -> None:
    """Mirror every cataloged object onto a joining node — fragments, local
    indexes, GI partitions.  Uncharged, like the catalog's offline builds:
    creating empty structures models no I/O."""
    catalog = cluster.catalog
    for name in sorted(catalog.relations):
        info = catalog.relations[name]
        node.create_fragment(info.schema)
        for column in sorted(info.indexes):
            node.create_local_index(name, column, info.indexes[column])
    for name in sorted(catalog.auxiliaries):
        aux = catalog.auxiliaries[name]
        node.create_fragment(aux.schema)
        node.create_local_index(name, aux.column, clustered=True)
    for name in sorted(catalog.views):
        info = catalog.views[name]
        node.create_fragment(info.schema)
        column = getattr(info.partitioner, "column", None)
        if column is not None:
            node.create_local_index(name, column, clustered=False)
    for name in sorted(catalog.global_indexes):
        gi = catalog.global_indexes[name]
        node.create_gi_partition(name, gi.base, gi.column)


# ========================================================= membership ops


def add_node(cluster: "Cluster") -> MigrationReport:
    """Grow the cluster online: provision node ``L``, shed it its share of
    every fragment (charged migration), rehome GI entries, re-sync
    replicas.  Returns what moved."""
    _require_elastic_views(cluster, "add_node")
    _check_no_open_scope(cluster, "add_node")
    membership = cluster.membership
    with cluster.obs.span(
        "membership", kind="join", epoch=membership.epoch + 1,
        num_nodes=cluster.num_nodes + 1,
    ):
        _flush_deferred(cluster)
        cluster._drain_parallel()
        with _replication_paused(cluster.replicator):
            token = membership.issue_token()
            membership.tokens.append(token)
            new_id = cluster.num_nodes
            node = Node(new_id, cluster.ledger, cluster.layout)
            node.faults = cluster.faults
            node.replicator = cluster.replicator
            cluster.nodes.append(node)
            cluster.num_nodes += 1
            cluster.network.num_nodes += 1
            cluster.peak_num_nodes = max(cluster.peak_num_nodes, cluster.num_nodes)
            _provision_node(cluster, node)
            # The joiner announces itself: one broadcast message, per leg.
            cluster.network.broadcast_many(new_id, 1, Tag.MIGRATE)
            identity = {i: i for i in range(cluster.num_nodes)}
            survivors = frozenset(range(new_id))
            report = MigrationReport(
                kind="join", epoch=membership.epoch + 1, node=new_id, token=token
            )
            for name, info in _partitioned_objects(cluster):
                bound = _rebind(info, cluster.num_nodes, membership.tokens)
                moves = _plan_moves(cluster, name, bound, identity, survivors, None)
                info.partitioner = bound  # type: ignore[attr-defined]
                count = _execute_moves(cluster, name, moves, Tag.MIGRATE)
                if count:
                    report.moved[name] = count
            report.gi_entries_deleted, report.gi_entries_inserted = (
                _remap_global_indexes(cluster, identity, Tag.MIGRATE)
            )
        if cluster.replicator is not None:
            report.replica_rows_synced = cluster.replicator.sync(charged=True)
        membership.record("join", new_id, token, detail=report.summary())
        cluster.catalog.bump_version()
        if cluster._sanitizer is not None:
            cluster._sanitizer.check("add_node")
        return report


def remove_node(cluster: "Cluster", node_id: int) -> MigrationReport:
    """Shrink the cluster online: migrate every row off ``node_id``
    (charged), renumber the survivors densely, rehome GI entries, re-sync
    replicas.  The node must be alive — a dead node needs :func:`fail_over`."""
    if not (0 <= node_id < cluster.num_nodes):
        raise ValueError(f"no node {node_id} in a {cluster.num_nodes}-node cluster")
    if cluster.num_nodes == 1:
        raise ValueError("cannot remove the last node")
    if cluster.faults is not None and cluster.faults.injector.is_down(node_id):
        raise ValueError(
            f"node {node_id} is down; graceful removal needs a live node "
            "(use fail_over for a crashed one)"
        )
    _require_elastic_views(cluster, "remove_node", shrinking=True)
    _check_no_open_scope(cluster, "remove_node")
    membership = cluster.membership
    token = membership.tokens[node_id]
    with cluster.obs.span(
        "membership", kind="leave", epoch=membership.epoch + 1, node=node_id,
        num_nodes=cluster.num_nodes - 1,
    ):
        _flush_deferred(cluster)
        cluster._drain_parallel()
        with _replication_paused(cluster.replicator):
            # The leaver announces its departure before handing off.
            cluster.network.broadcast_many(node_id, 1, Tag.MIGRATE)
            new_count = cluster.num_nodes - 1
            new_tokens = [
                t for i, t in enumerate(membership.tokens) if i != node_id
            ]
            old_of_new = {
                new: (new if new < node_id else new + 1)
                for new in range(new_count)
            }
            survivors = frozenset(old_of_new.values())
            report = MigrationReport(
                kind="leave", epoch=membership.epoch + 1, node=node_id, token=token
            )
            for name, info in _partitioned_objects(cluster):
                bound = _rebind(info, new_count, new_tokens)
                moves = _plan_moves(
                    cluster, name, bound, old_of_new, survivors, None
                )
                info.partitioner = bound  # type: ignore[attr-defined]
                count = _execute_moves(cluster, name, moves, Tag.MIGRATE)
                if count:
                    report.moved[name] = count
            id_map = _renumber(cluster, node_id)
            report.gi_entries_deleted, report.gi_entries_inserted = (
                _remap_global_indexes(cluster, id_map, Tag.MIGRATE)
            )
        if cluster.replicator is not None:
            report.replica_rows_synced = cluster.replicator.sync(charged=True)
        membership.record("leave", node_id, token, detail=report.summary())
        cluster.catalog.bump_version()
        if cluster._sanitizer is not None:
            cluster._sanitizer.check("remove_node")
        return report


def fail_over(cluster: "Cluster", node_id: int) -> MigrationReport:
    """Decommission a *crashed* node: promote its first live ring successor,
    restore its fragments from that successor's replica bags (charged),
    renumber, rehome GI entries, re-sync replicas, and replay any
    statements the crash left queued.  Afterwards the auditor must find
    zero divergence — that is the acceptance test of the fault model.
    """
    faults = cluster.faults
    if faults is None:
        raise RuntimeError("fail_over requires attach_faults (no injector)")
    if not faults.injector.is_down(node_id):
        raise ValueError(f"node {node_id} is not down; use remove_node")
    if cluster.num_nodes == 1:
        raise ValueError("cannot fail over the last node")
    replicator = cluster.replicator
    if replicator is None:
        raise RuntimeError(
            "fail_over needs enable_replication(k >= 2); without replicas "
            "the lost fragments are unrecoverable online — restart the node "
            "and run ConsistencyAuditor.repair() instead"
        )
    _require_elastic_views(cluster, "fail_over", shrinking=True)
    _check_no_open_scope(cluster, "fail_over")
    successor = replicator.elect_successor(node_id)
    if successor is None:
        raise NodeDown(
            f"cannot fail over node {node_id}: every replica target is down"
        )
    membership = cluster.membership
    token = membership.tokens[node_id]
    with cluster.obs.span(
        "membership", kind="failover", epoch=membership.epoch + 1,
        node=node_id, successor=successor, num_nodes=cluster.num_nodes - 1,
    ):
        cluster._drain_parallel()
        with _replication_paused(replicator):
            new_count = cluster.num_nodes - 1
            new_tokens = [
                t for i, t in enumerate(membership.tokens) if i != node_id
            ]
            old_of_new = {
                new: (new if new < node_id else new + 1)
                for new in range(new_count)
            }
            survivors = frozenset(old_of_new.values())
            report = MigrationReport(
                kind="failover", epoch=membership.epoch + 1,
                node=node_id, token=token,
            )
            for name, info in _partitioned_objects(cluster):
                bound = _rebind(info, new_count, new_tokens)
                moves = _plan_moves(
                    cluster, name, bound, old_of_new, survivors, node_id
                )
                lost_rows = cluster.nodes[successor].replica_rows(node_id, name)
                info.partitioner = bound  # type: ignore[attr-defined]
                count = _execute_moves(cluster, name, moves, Tag.MIGRATE)
                if count:
                    report.moved[name] = count
                assignments = [
                    (old_of_new[bound.node_of_row(row)], row)  # type: ignore[attr-defined]
                    for row in lost_rows
                ]
                count = _execute_restores(
                    cluster, name, successor, assignments, Tag.MIGRATE
                )
                if count:
                    report.restored[name] = count
            id_map = _renumber(cluster, node_id)
            report.promoted = id_map[successor]
            # The promoted successor announces the new membership.
            cluster.network.broadcast_many(report.promoted, 1, Tag.MIGRATE)
            report.gi_entries_deleted, report.gi_entries_inserted = (
                _remap_global_indexes(cluster, id_map, Tag.MIGRATE)
            )
            _remap_deferred(cluster, id_map, fallback=report.promoted)
        report.replica_rows_synced = replicator.sync(charged=True)
        replay = faults.replay_pending()
        report.replayed_statements = replay.replayed
        membership.record("failover", node_id, token, detail=report.summary())
        cluster.catalog.bump_version()
        if cluster._sanitizer is not None:
            cluster._sanitizer.check("fail_over")
        return report
