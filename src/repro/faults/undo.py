"""The physical undo log.

Every mutation the cluster's update path performs — base-fragment writes,
auxiliary-relation co-updates, global-index entry changes, view writes,
deferred-queue state — records an inverse operation into the innermost
active :class:`UndoLog`.  Rolling back replays the inverses in reverse
order, restoring the cluster to the exact state before the scope opened,
*including rowids* (GI rid-lists survive a rollback — see
:meth:`repro.storage.heap.HeapTable.restore`).

An inverse is a callable plus its arguments.  The batched engine records
one per write *batch* — ``fragment.delete_many`` with the rowids an
``insert_many`` produced, ``fragment.restore`` with the (rowid, row) of a
located delete, ``partition.delete_many`` with a GI entry batch — as a
bound method and an argument tuple, so the hot path builds no closure and
formats no string.
Arbitrary closures (deferred queues, aggregate rewrites, the per-tuple
reference engine) record the same way with no arguments.

Inverses operate on raw storage and deliberately bypass node
liveness guards: the physical analogue is a crashed node applying its
write-ahead undo records during local restart, which needs no
interconnect.

Cost attribution: recording is free (it models keeping undo images in the
log buffer, which the paper's I/O model does not price).  *Applying* undo
on rollback is real work; when a ledger is supplied each physical write
undone charges one write I/O at its node under the original statement
tag, so aborted work is visible in TW/RT exactly like completed work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..costs import CostLedger, Op, Tag


@dataclass(slots=True)
class UndoEntry:
    """One recorded inverse operation: ``undo(*args)`` reverses it.

    ``writes`` is the number of physical write I/Os replaying the inverse
    costs (0 for pure bookkeeping such as deferred-queue restores; ``n`` for a
    batch of ``n`` tuples); ``node`` and ``tag`` say where/how to charge
    them.
    """

    undo: Callable[..., Any]
    node: Optional[int] = None
    tag: Optional[Tag] = None
    writes: int = 0
    description: str = ""
    args: Tuple[Any, ...] = ()


@dataclass
class RollbackReport:
    """What one rollback physically did."""

    entries_undone: int = 0
    writes_charged: float = 0.0


@dataclass(eq=False)
class UndoLog:
    """An append-only log of inverse operations for one atomic scope.

    Scopes compare by identity: two open scopes with equal (for instance
    both empty) entry lists are still different scopes, and the cluster's
    scope stack removes exactly the one that is closing.
    """

    entries: List[UndoEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def record(
        self,
        undo: Callable[..., Any],
        node: Optional[int] = None,
        tag: Optional[Tag] = None,
        writes: int = 0,
        description: str = "",
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.entries.append(
            UndoEntry(undo, node, tag, writes, description, args)
        )

    def rollback(
        self,
        ledger: Optional[CostLedger] = None,
        charge: bool = False,
    ) -> RollbackReport:
        """Replay every inverse in reverse order and empty the log.

        With ``charge=True`` and a ledger, each undone physical write
        (``writes`` of them for a batch entry) bills one write I/O
        (:attr:`Op.INSERT` weight — the model prices all single-tuple
        mutations identically) at its node under the tag of the forward
        operation.
        """
        report = RollbackReport()
        while self.entries:
            entry = self.entries.pop()
            entry.undo(*entry.args)
            report.entries_undone += 1
            if (
                charge
                and ledger is not None
                and entry.writes
                and entry.node is not None
            ):
                tag = entry.tag if entry.tag is not None else Tag.MAINTAIN
                ledger.charge(entry.node, Op.INSERT, tag, count=entry.writes)
                report.writes_charged += entry.writes
        return report

    def merge_into(self, parent: "UndoLog") -> None:
        """Hand this scope's entries to the enclosing scope (savepoint
        release): a committed inner statement must still be undoable by an
        enclosing transaction rollback."""
        parent.entries.extend(self.entries)
        self.entries.clear()

    def discard(self) -> None:
        """Forget everything without undoing (outermost commit)."""
        self.entries.clear()
