"""Transactional recovery: undo scopes, statement queueing, replay, degrade.

The :class:`FaultController` is the piece that turns injected faults into
*recoverable* events instead of silent corruption:

* every statement executes inside an **atomic scope** backed by the
  physical :class:`~repro.faults.undo.UndoLog` — a fault anywhere in the
  base-write / co-update / view-maintenance pipeline rolls back base
  fragments, auxiliary relations, GI partitions, and the view together;
* rolled-back statements are **queued** and **replayed** once the cluster
  heals (``recover()`` restarts crashed nodes, then re-executes the queue
  in order); and
* optionally the controller **degrades gracefully**: when only an AR/GI
  node is down, apply the base writes now, mark derived state dirty, and
  restore it at recovery time by naive recomputation
  (:meth:`~repro.faults.audit.ConsistencyAuditor.repair`) — availability
  over freshness, the classic warehouse trade.

Cost attribution: send retries are charged by the network; rollback
writes are charged here (policy-controlled), so robustness overhead is
visible in the paper's TW/RT metrics.  With no faults firing, the scopes
record but never replay, and the ledger is bit-identical to a fault-free
run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, TYPE_CHECKING

from .audit import ConsistencyAuditor, RepairReport
from .backoff import BackoffPolicy, BackoffState
from .errors import FaultError, NodeDown, ProbeFailure, StatementAborted
from .injector import FaultInjector
from .plan import FaultPlan
from .undo import UndoLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster
    from ..storage.schema import Row


@dataclass(frozen=True)
class RecoveryPolicy:
    """How much protection the cluster buys (and pays for).

    ``max_send_retries``/``max_probe_retries`` bound retry-with-backoff;
    ``dedup`` enables receiver-side duplicate suppression (the duplicate
    SEND is still charged — the wire carried it); ``undo`` enables the
    undo log and statement rollback; ``queue_on_failure`` parks aborted
    statements for replay instead of raising; ``degrade_when_down``
    applies base writes even when a derived-structure node is down,
    repaying with a naive recomputation at recovery; ``charge_rollback``
    bills one write I/O per undone physical write; ``backoff_base`` /
    ``backoff_cap`` / ``backoff_jitter`` shape the seeded exponential
    backoff between send retries (slots are tracked in
    ``NetworkStats.backoff_slots`` and charged as ``Op.BACKOFF`` cells —
    weight 0.0 under the paper's parameters, so TW is unchanged unless a
    sensitivity study prices waiting).
    """

    max_send_retries: int = 3
    max_probe_retries: int = 3
    dedup: bool = True
    undo: bool = True
    queue_on_failure: bool = True
    degrade_when_down: bool = False
    charge_rollback: bool = True
    backoff_base: float = 2.0
    backoff_cap: float = 16.0
    backoff_jitter: float = 0.25

    @classmethod
    def protected(cls) -> "RecoveryPolicy":
        """Full protection (the default)."""
        return cls()

    @classmethod
    def unprotected(cls) -> "RecoveryPolicy":
        """No retries, no dedup, no undo: faults corrupt, visibly."""
        return cls(
            max_send_retries=0, max_probe_retries=0, dedup=False,
            undo=False, queue_on_failure=False, charge_rollback=False,
        )


@dataclass
class QueuedStatement:
    """One rolled-back statement awaiting replay."""

    relation: str
    inserts: List["Row"]
    deletes: List["Row"]
    cause: str
    attempts: int = 0


@dataclass
class ControllerStats:
    """What recovery actually did across the run."""

    rollbacks: int = 0
    rollback_writes: float = 0.0
    queued: int = 0
    replayed: int = 0
    degraded_statements: int = 0
    rebuilds: int = 0


@dataclass
class ReplayReport:
    """Outcome of one ``recover()`` / ``replay_pending()`` pass."""

    replayed: int = 0
    still_pending: int = 0
    rebuilt: Optional[RepairReport] = None


class FaultController:
    """Owns the injector, the recovery policy, and the pending queue for
    one cluster.  Install with :func:`attach_faults`."""

    def __init__(
        self,
        cluster: "Cluster",
        injector: FaultInjector,
        policy: RecoveryPolicy,
    ) -> None:
        self.cluster = cluster
        self.injector = injector
        self.policy = policy
        self.pending: List[QueuedStatement] = []
        self.stats = ControllerStats()
        self._needs_rebuild = False
        self._replaying = False

    def _fault_event(self, kind: str, **tags: object) -> None:
        """Push one live recovery event (counter + trace instant) when a
        live observability facade is attached; free otherwise."""
        obs = self.cluster.obs
        if obs.enabled:
            obs.metrics.counter(
                "repro_recovery_events_total",
                "Recovery actions taken (rollbacks, queueing, degradation, "
                "replays)",
            ).inc(kind=kind)
            obs.event(f"recovery.{kind}", **tags)

    # ------------------------------------------------------------- liveness

    def guard_node(self, node_id: int, what: str = "local operation") -> None:
        """Raise :class:`NodeDown` when ``node_id`` is crashed."""
        if self.injector.is_down(node_id):
            raise NodeDown(node_id, what)

    def require_all_up(self, what: str) -> None:
        down = self.injector.down_nodes
        if down:
            raise NodeDown(down[0], f"{what} requires all nodes up; down: {down}")

    def wasted_probe_attempts(self, node_id: int, what: str) -> int:
        """Consult the injector before a probe: the number of failed
        attempts the node burned before succeeding (0 in the common case).
        Raises :class:`ProbeFailure` when the retry budget is exhausted —
        the caller charges one SEARCH per wasted attempt."""
        if not self.injector.should_fail_probe(node_id):
            return 0
        wasted = 1
        while wasted <= self.policy.max_probe_retries:
            if not self.injector.should_fail_probe(node_id):
                return wasted
            wasted += 1
        raise ProbeFailure(node_id, what, wasted)

    # -------------------------------------------------------- atomic scopes

    @contextmanager
    def atomic(self, description: str) -> Iterator[Optional[UndoLog]]:
        """Run the body all-or-nothing: a :class:`FaultError` inside rolls
        every recorded physical mutation back (and re-raises)."""
        if not self.policy.undo:
            yield None
            return
        cluster = self.cluster
        log = UndoLog()
        cluster._undo_logs.append(log)
        try:
            yield log
        except FaultError as exc:
            cluster._undo_logs.pop()
            report = log.rollback(
                ledger=cluster.ledger, charge=self.policy.charge_rollback
            )
            self.stats.rollbacks += 1
            self.stats.rollback_writes += report.writes_charged
            self._fault_event(
                "rollback", cause=type(exc).__name__,
                writes=report.writes_charged,
            )
            exc.add_context(f"rolled back: {description}")
            raise
        else:
            cluster._undo_logs.pop()
            if cluster._undo_logs:
                log.merge_into(cluster._undo_logs[-1])

    # ------------------------------------------------------------ statements

    def run_statement(
        self,
        relation: str,
        inserts: Sequence["Row"],
        deletes: Sequence["Row"],
    ) -> None:
        """Execute one maintained DML statement under fault protection."""
        description = f"{relation}: +{len(inserts)}/-{len(deletes)}"
        try:
            with self.atomic(description):
                self.cluster._execute_statement(
                    relation, list(inserts), list(deletes)
                )
            return
        except FaultError as exc:
            if not self.policy.undo:
                raise  # unprotected: partial state stays, caller sees the fault
            if self.policy.degrade_when_down and self._can_degrade(
                exc, relation, inserts, deletes
            ):
                self._apply_degraded(relation, inserts, deletes)
                return
            if self.policy.queue_on_failure:
                self.pending.append(
                    QueuedStatement(
                        relation, list(inserts), list(deletes), cause=str(exc)
                    )
                )
                self.stats.queued += 1
                self._fault_event(
                    "queued", relation=relation, cause=type(exc).__name__
                )
                return
            raise StatementAborted(description, cause=exc) from exc

    def _can_degrade(
        self,
        exc: FaultError,
        relation: str,
        inserts: Sequence["Row"],
        deletes: Sequence["Row"],
    ) -> bool:
        """Degradation applies when the fault is a down node that no base
        write of this statement needs — i.e. only derived maintenance is
        blocked."""
        if not isinstance(exc, NodeDown):
            return False
        info = self.cluster.catalog.relation(relation)
        node_of_row = getattr(info.partitioner, "node_of_row", None)
        if node_of_row is None:
            return False
        base_nodes = {node_of_row(row) for row in list(inserts) + list(deletes)}
        return exc.node not in base_nodes

    def _apply_degraded(
        self,
        relation: str,
        inserts: Sequence["Row"],
        deletes: Sequence["Row"],
    ) -> None:
        """Apply only the base writes; derived state is marked dirty and
        rebuilt at recovery by naive recomputation."""
        with self.atomic(f"degraded base write on {relation}"):
            self.cluster._execute_base_writes(
                relation, list(inserts), list(deletes)
            )
        self._needs_rebuild = True
        self.stats.degraded_statements += 1
        self._fault_event("degraded", relation=relation)

    # -------------------------------------------------------------- recovery

    @property
    def needs_rebuild(self) -> bool:
        return self._needs_rebuild

    def replay_pending(self) -> ReplayReport:
        """Re-execute queued statements in arrival order; statements that
        fault again stay queued (in order)."""
        report = ReplayReport()
        queue, self.pending = self.pending, []
        self._replaying = True
        try:
            with self.cluster.obs.span(
                "recovery_replay", queued=len(queue)
            ) as span:
                for statement in queue:
                    try:
                        with self.atomic(
                            f"replay {statement.relation}: "
                            f"+{len(statement.inserts)}/-{len(statement.deletes)}"
                        ):
                            self.cluster._execute_statement(
                                statement.relation,
                                list(statement.inserts),
                                list(statement.deletes),
                            )
                        report.replayed += 1
                        self.stats.replayed += 1
                        self._fault_event("replayed", relation=statement.relation)
                    except FaultError as exc:
                        statement.attempts += 1
                        statement.cause = str(exc)
                        self.pending.append(statement)
                span.tag(replayed=report.replayed, still_pending=len(self.pending))
        finally:
            self._replaying = False
        report.still_pending = len(self.pending)
        return report

    def recover(self, node: Optional[int] = None) -> ReplayReport:
        """Restart crashed node(s), rebuild degraded derived state if
        needed, then replay the queue.

        Rebuild runs *before* replay: replayed statements maintain views
        incrementally through ARs/GIs, which must be current first.
        """
        if node is None:
            self.injector.restart_all()
        else:
            self.injector.restart(node)
        rebuilt: Optional[RepairReport] = None
        if self._needs_rebuild:
            rebuilt = ConsistencyAuditor(self.cluster).repair()
            self._needs_rebuild = False
            self.stats.rebuilds += 1
        report = self.replay_pending()
        report.rebuilt = rebuilt
        return report



def attach_faults(
    cluster: "Cluster",
    injector: Optional[FaultInjector] = None,
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    policy: Optional[RecoveryPolicy] = None,
) -> FaultController:
    """Install fault injection + recovery on a cluster.

    >>> controller = attach_faults(cluster, plan=FaultPlan().drop(times=1))
    ... # doctest: +SKIP
    """
    if cluster.faults is not None:
        raise ValueError("cluster already has a fault controller attached")
    # Fault semantics are sequence-keyed: statements must run on the serial
    # reference engine (same gate as the batched paths), so stop any worker
    # pool now — its replicas would go stale behind undo/rollback writes.
    cluster._drain_parallel()
    if injector is None:
        injector = FaultInjector(plan, seed=seed)
    elif plan is not None:
        raise ValueError("pass either an injector or a plan, not both")
    if policy is None:
        policy = RecoveryPolicy.protected()
    controller = FaultController(cluster, injector, policy)
    cluster.faults = controller
    network = cluster.network
    network.injector = injector
    network.max_retries = policy.max_send_retries
    network.dedup = policy.dedup
    # Jitter is seeded from the injector so the whole fault run — fates and
    # backoff slots alike — is a function of one seed.
    network.backoff = BackoffState(
        BackoffPolicy(
            base=policy.backoff_base,
            cap=policy.backoff_cap,
            jitter=policy.backoff_jitter,
        ),
        seed=injector.seed,
    )
    for node in cluster.nodes:
        node.faults = controller
    return controller


def detach_faults(cluster: "Cluster") -> None:
    """Remove fault injection; the cluster charges exactly as before."""
    cluster.faults = None
    network = cluster.network
    network.injector = None
    network.max_retries = 0
    network.dedup = True
    network.backoff = BackoffState()
    for node in cluster.nodes:
        node.faults = None
