"""Transaction scoping for cost attribution and atomicity.

The paper's unit of evaluation is "one transaction that inserts A tuples".
A :class:`Transaction` groups several DML statements, applies them eagerly
(this engine models cost, not isolation — see DESIGN.md §6), and reports the
combined cost snapshot with the paper's two metrics.

Since the fault-injection work the transaction also owns a real physical
:class:`~repro.faults.undo.UndoLog`: every statement's mutations (base
fragments, auxiliary relations, GI partitions, view fragments, replica
bags) record their inverses into it, so
:meth:`Transaction.rollback` — or an exception escaping the ``with`` block —
restores the cluster to the state at ``__enter__``, rowids included.
Statements inside a transaction run on the same batched engine as
autocommit ones (an open scope does not change ``Cluster._bulk_ok``); a
bulk write records one inverse per batch.  Undone writes are charged only
when a fault controller with ``charge_rollback`` is attached; a plain
rollback is bookkeeping, keeping fault-free ledgers identical to the seed
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from ..costs import CostSnapshot, Tag
from ..faults.undo import UndoLog
from ..storage.schema import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Cluster


@dataclass
class TransactionReport:
    """Summary of one transaction's accounted work."""

    snapshot: CostSnapshot
    statements: int
    rolled_back: bool = False

    @property
    def total_workload(self) -> float:
        """TW over every tag (base + maintenance + view)."""
        return self.snapshot.total_workload()

    @property
    def maintenance_workload(self) -> float:
        """The paper's TW: differential maintenance I/Os only."""
        return self.snapshot.maintenance_workload()

    @property
    def maintenance_response_time(self) -> float:
        """Max per-node maintenance I/Os — the paper's response-time metric."""
        return self.snapshot.maintenance_response_time()

    @property
    def response_time(self) -> float:
        return self.snapshot.response_time()


class Transaction:
    """Context manager grouping DML statements into one measurement.

    >>> with cluster.transaction() as txn:
    ...     txn.insert("A", rows)
    >>> txn.report.maintenance_workload  # doctest: +SKIP
    """

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self._statements = 0
        self._before: Optional[CostSnapshot] = None
        self._undo: Optional[UndoLog] = None
        self._rolled_back = False
        self.report: Optional[TransactionReport] = None

    def __enter__(self) -> "Transaction":
        if self._before is not None:
            raise RuntimeError("transaction already entered")
        self._before = self._cluster.ledger.snapshot()
        self._undo = UndoLog()
        self._cluster._undo_logs.append(self._undo)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._before is not None
        if self._undo is not None:
            log = self._undo
            self._undo = None
            if log in self._cluster._undo_logs:
                self._cluster._undo_logs.remove(log)
            if exc_type is not None:
                # An escaping exception aborts the transaction: restore the
                # cluster to the state at __enter__.
                log.rollback(
                    ledger=self._cluster.ledger, charge=self._charge_rollback()
                )
                self._rolled_back = True
            elif self._cluster._undo_logs:
                # Nested inside an enclosing scope: release the savepoint.
                log.merge_into(self._cluster._undo_logs[-1])
            else:
                log.discard()
        snapshot = self._cluster.ledger.diff_since(self._before)
        self.report = TransactionReport(
            snapshot=snapshot,
            statements=self._statements,
            rolled_back=self._rolled_back,
        )

    def rollback(self) -> None:
        """Undo every statement of this transaction, in reverse order.

        Restores base fragments, auxiliary relations, global indexes and
        view fragments — including rowids, so GI rid-lists remain valid.
        The transaction is closed to further DML afterwards (as in SQL,
        ROLLBACK ends the transaction).
        """
        self._check_open()
        assert self._undo is not None
        log = self._undo
        self._undo = None
        self._cluster._undo_logs.remove(log)
        log.rollback(ledger=self._cluster.ledger, charge=self._charge_rollback())
        self._rolled_back = True

    def _charge_rollback(self) -> bool:
        faults = self._cluster.faults
        return faults is not None and faults.policy.charge_rollback

    def _check_open(self) -> None:
        if self._before is None or self.report is not None or self._rolled_back:
            raise RuntimeError("transaction is not open")

    def insert(self, relation: str, rows: Iterable[Row]) -> None:
        self._check_open()
        self._statements += 1
        self._cluster.insert(relation, rows)

    def delete(self, relation: str, rows: Iterable[Row]) -> None:
        self._check_open()
        self._statements += 1
        self._cluster.delete(relation, rows)

    def update(self, relation: str, changes: Iterable[Tuple[Row, Row]]) -> None:
        self._check_open()
        self._statements += 1
        self._cluster.update(relation, changes)
