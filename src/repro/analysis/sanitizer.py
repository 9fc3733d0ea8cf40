"""The runtime sanitizer: REP invariants asserted while an engine runs.

The static rules (:mod:`repro.analysis.rules`) prove their invariants over
*source*; this module re-asserts the observable halves of the same
contracts over a *running* cluster, catching what syntax cannot — a code
path that charges twice, a counter that drifts, a mutation routed around
the accounting layer by indirection.

Enable with ``Cluster(..., sanitize=True)`` or ``REPRO_SANITIZE=1``.  Two
hooks, both free when disabled (one attribute test each):

* :class:`SendAccountingNetwork` replaces the cluster's ``Network`` and
  counts, per wrapper call, the SEND charges the cost model *says* the
  call must make.  After every statement :class:`StatementSanitizer`
  compares that expectation against the ledger — REP007's
  charged-vs-counted contract, verified dynamically.  With a fault
  injector attached, charge counts are fate-dependent (retries,
  duplicates), so parity checking disarms rather than guess.

* :meth:`StatementSanitizer.check` additionally asserts, after every
  statement: ledger cells are finite, non-negative, and node-ranged;
  ``NetworkStats`` is internally consistent (``messages`` equals the
  ``by_link`` sum); the shared ``DISABLED`` obs facade has not been
  written to (REP003); and no undo scope is open while the parallel
  engine is admissible (the gate REP005/REP009 rely on).  Cardinalities
  need no check: :meth:`StatisticsCache.rows` sums the fragments, so it
  has no copy that could drift.

Envelope validation (REP005's runtime half) lives in
:func:`repro.cluster.parallel.validate_op`, called by ``run_ops`` when
``cluster.sanitize`` is set.

Every check reads engine state without charging, so a sanitized run's
ledger is **bit-identical** to an unsanitized one — the sanitizer suite
pins exactly that.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from ..cluster.network import Network
from ..costs import Op, Tag
from ..obs.collect import DISABLED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster


class SanitizeError(AssertionError):
    """An engine invariant observed broken at runtime."""


class SendAccountingNetwork(Network):
    """The charging wrapper, with an independent expectation counter.

    On the fault-free path every wrapper call implies an exact number of
    SEND charges (cross-node sends charge one each; broadcasts charge the
    self-leg too, per Figure 2).  The counter tracks that expectation
    *outside* the ledger, so a drifted charge path cannot hide.  Any
    unreliable send disarms parity for the cluster's lifetime: with an
    injector the true charge count depends on message fates.
    """

    __slots__ = ("expected_send_charges", "parity_armed")

    def __init__(self, num_nodes: int, ledger) -> None:
        super().__init__(num_nodes, ledger)
        self.expected_send_charges = 0
        self.parity_armed = True

    def send(self, src: int, dst: int, tag: Tag = Tag.MAINTAIN) -> int:
        if self.injector is not None and src != dst:
            self.parity_armed = False
        elif src != dst:
            self.expected_send_charges += 1
        return super().send(src, dst, tag)

    def send_many(
        self, src: int, dst: int, count: int, tag: Tag = Tag.MAINTAIN
    ) -> int:
        if count > 0 and src != dst:
            if self.injector is not None:
                self.parity_armed = False
            else:
                self.expected_send_charges += count
        return super().send_many(src, dst, count, tag)

    def broadcast(self, src: int, tag: Tag = Tag.MAINTAIN) -> Iterable[int]:
        # The base broadcast routes unreliable legs through self.send,
        # which handles its own accounting; reliable legs (and the
        # self-leg, which broadcast charges unlike send) are counted here.
        for dst in super().broadcast(src, tag):
            if self.injector is None or dst == src:
                self.expected_send_charges += 1
            yield dst

    def broadcast_many(self, src: int, count: int, tag: Tag = Tag.MAINTAIN) -> None:
        if count > 0:
            if self.injector is not None:
                if self.num_nodes > 1:
                    self.parity_armed = False
                self.expected_send_charges += count  # the reliable self-leg
            else:
                self.expected_send_charges += count * self.num_nodes
        super().broadcast_many(src, count, tag)


class StatementSanitizer:
    """Post-statement invariant checks for one sanitized cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.checks_run = 0

    # ------------------------------------------------------------- checks

    def check(self, where: str = "statement") -> None:
        """Run every invariant check; raise :class:`SanitizeError` with the
        first violation found."""
        self.checks_run += 1
        self._check_ledger_cells(where)
        self._check_network_stats(where)
        self._check_send_parity(where)
        self._check_disabled_facade(where)
        self._check_undo_gate(where)

    def _fail(self, where: str, message: str) -> None:
        raise SanitizeError(f"sanitize[{where}]: {message}")

    def _check_ledger_cells(self, where: str) -> None:
        # Ledger cells are historical: a node retired by remove_node /
        # fail_over keeps the charges it accrued, so the legal id range is
        # the lifetime peak, not the current count.
        num_nodes = getattr(
            self.cluster, "peak_num_nodes", self.cluster.num_nodes
        )
        for (node, op, tag), count in self.cluster.ledger._cells.items():
            if not (0 <= node < num_nodes):
                self._fail(
                    where,
                    f"ledger cell charged at node {node}, outside "
                    f"0..{num_nodes - 1} (op={op.value}, tag={tag.value})",
                )
            if not math.isfinite(count) or count < 0:
                self._fail(
                    where,
                    f"ledger cell (node={node}, op={op.value}, "
                    f"tag={tag.value}) holds invalid count {count!r}",
                )

    def _check_network_stats(self, where: str) -> None:
        stats = self.cluster.network.stats
        link_total = sum(stats.by_link.values())
        if stats.messages != link_total:
            self._fail(
                where,
                f"NetworkStats.messages={stats.messages} but by_link sums "
                f"to {link_total}: a counter was bypassed",
            )
        if any(count < 0 for count in stats.by_link.values()):
            self._fail(where, "negative per-link message count")

    def _check_send_parity(self, where: str) -> None:
        network = self.cluster.network
        if not isinstance(network, SendAccountingNetwork):
            return
        if not network.parity_armed:
            return  # injector made charge counts fate-dependent
        charged = sum(
            count
            for (node, op, tag), count in self.cluster.ledger._cells.items()
            if op is Op.SEND
        )
        expected = network.expected_send_charges
        if charged != expected:
            self._fail(
                where,
                f"SEND charge parity broken: ledger holds {charged} SEND "
                f"charges but the Network wrapper accounted for {expected} "
                "— some message was charged outside the wrapper (or not "
                "at all); see REP007",
            )

    def _check_disabled_facade(self, where: str) -> None:
        if DISABLED.metrics._metrics:
            polluted = sorted(DISABLED.metrics._metrics)
            self._fail(
                where,
                "the shared DISABLED observability facade accumulated "
                f"metrics {polluted}: some site touched obs.metrics "
                "without an obs.enabled guard; see REP003",
            )

    def _check_undo_gate(self, where: str) -> None:
        cluster = self.cluster
        if cluster._undo_logs and cluster._parallel_gate():
            self._fail(
                where,
                "an undo scope is open while the parallel gate admits "
                "supersteps: a rollback mutates coordinator-side state the "
                "refresh journal does not carry, so the worker pool must "
                "drain under undo scopes (see Cluster._parallel_gate)",
            )


def install(cluster: "Cluster") -> StatementSanitizer:
    """Arm the sanitizer on ``cluster``: swap in the accounting network and
    attach a :class:`StatementSanitizer`.  Called from ``Cluster.__init__``
    when ``sanitize`` resolves true; safe only before any traffic."""
    if cluster.network.stats.messages or cluster.network.stats.local_deliveries:
        raise RuntimeError("sanitizer must be installed before any traffic")
    network = SendAccountingNetwork(cluster.num_nodes, cluster.ledger)
    network.obs = cluster.network.obs
    cluster.network = network
    return StatementSanitizer(cluster)
