"""Metrics-driven rebalancing of the consistent-hash ring.

The elastic membership layer makes *where* data lives a runtime decision;
this module closes the loop by reading the same observability gauges an
operator would (:func:`repro.obs.collect_cluster_metrics`) and shifting
ring weight away from hot nodes:

* the **primary signal** is ``repro_node_load_ios`` — each node's lifetime
  weighted I/Os straight from the cost ledger;
* the **secondary signal** is ``repro_worker_busy_ns`` skew from a running
  worker pool.  Since PR 7 workers are read servers whose probes are
  slot-routed, busy time has no exact node mapping; each worker's total is
  spread over a contiguous node range (a deterministic approximation) and
  breaks ties when the modeled ledger is balanced but wall-clock work is
  not.

A proposal moves ``step`` virtual nodes of ring weight from the hottest
node's token to the coldest's; executing it rebinds every consistent-hash
partitioner and ships the relocated rows through the exact charged
migration path membership changes use (SENDs tagged ``MIGRATE``, handoff/
migrate envelopes).  Modulo-hash and round-robin objects are untouched —
with an unchanged node count their placement cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..costs import Tag
from ..obs.collect import collect_cluster_metrics
from ..obs.metrics import MetricsRegistry
from .membership import (
    _check_no_open_scope,
    _execute_moves,
    _partitioned_objects,
    _plan_moves,
    _rebind,
    _replication_paused,
    _require_elastic_views,
)
from .partitioning import BoundConsistentHash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Cluster


@dataclass
class RebalanceProposal:
    """A single weight shift the load signal justifies."""

    hot_node: int
    cold_node: int
    hot_token: int
    cold_token: int
    skew: float
    loads: Dict[int, float]
    step: int

    def describe(self) -> str:
        return (
            f"skew {self.skew:.2f}: shift {self.step} vnode(s) from node "
            f"{self.hot_node} (token {self.hot_token}) to node "
            f"{self.cold_node} (token {self.cold_token})"
        )


@dataclass
class RebalanceReport:
    """What one executed rebalance moved."""

    proposal: RebalanceProposal
    epoch: int
    moved: Dict[str, int] = field(default_factory=dict)

    @property
    def moved_rows(self) -> int:
        return sum(self.moved.values())


class Rebalancer:
    """Observes per-node load and evens it out with charged migrations.

    ``skew_threshold`` is the max/mean load ratio above which a shift is
    proposed (1.0 means perfectly even; the default tolerates 25% excess).
    ``step`` is how many ring vnodes one rebalance moves; ``min_weight``
    floors a token's weight so no node ever leaves the ring entirely.
    """

    def __init__(
        self,
        cluster: "Cluster",
        skew_threshold: float = 1.25,
        step: int = 1,
        min_weight: int = 1,
    ) -> None:
        if skew_threshold < 1.0:
            raise ValueError("skew_threshold must be >= 1.0")
        if step < 1 or min_weight < 1:
            raise ValueError("step and min_weight must be >= 1")
        self.cluster = cluster
        self.skew_threshold = skew_threshold
        self.step = step
        self.min_weight = min_weight

    # ------------------------------------------------------------ signals

    def load_by_node(self) -> Dict[int, float]:
        """The per-node load signal, read back from the metrics gauges.

        Ledger I/Os dominate; worker busy-ns — folded onto contiguous node
        ranges as a deterministic approximation, since read-server probes
        are slot-routed rather than node-sharded — enters at nanosecond
        scale, so it only decides between nodes the ledger considers equal.
        """
        cluster = self.cluster
        registry = collect_cluster_metrics(cluster, MetricsRegistry())
        ios = registry.gauge(
            "repro_node_load_ios",
            "Weighted I/Os charged per node over the cluster's lifetime — the "
            "rebalancer's primary load signal",
        )
        loads = {
            node: ios.get(node=node) for node in range(cluster.num_nodes)
        }
        engine = cluster._parallel_engine
        if engine is not None and engine.running:
            from .parallel import shard_ranges

            busy = registry.gauge(
                "repro_worker_busy_ns",
                "Cumulative busy nanoseconds per pool worker (skew feeds the "
                "rebalancer's secondary signal)",
            )
            ranges = shard_ranges(cluster.num_nodes, len(engine.worker_busy_ns))
            for worker_id, (start, stop) in enumerate(ranges):
                width = max(1, stop - start)
                share = busy.get(worker=worker_id) / width
                for node in range(start, stop):
                    # 1 ns == 1e-9 modeled I/Os: a pure tiebreaker.
                    loads[node] = loads.get(node, 0.0) + share * 1e-9
        return loads

    def _consistent_vnodes(self) -> Optional[int]:
        """The default vnode count of the ring objects (None when no
        consistent-hash object exists — then there is nothing to shift)."""
        for _name, info in _partitioned_objects(self.cluster):
            partitioner = info.partitioner  # type: ignore[attr-defined]
            if isinstance(partitioner, BoundConsistentHash):
                return partitioner.spec.vnodes
        return None

    # ----------------------------------------------------------- proposal

    def propose(self) -> Optional[RebalanceProposal]:
        """A weight shift, or ``None`` when load is within tolerance (or
        nothing consistent-hashed exists to move)."""
        cluster = self.cluster
        if cluster.num_nodes < 2 or self._consistent_vnodes() is None:
            return None
        loads = self.load_by_node()
        total = sum(loads.values())
        if total <= 0.0:
            return None
        mean = total / cluster.num_nodes
        hot = max(sorted(loads), key=lambda n: loads[n])
        cold = min(sorted(loads), key=lambda n: loads[n])
        skew = loads[hot] / mean
        if skew <= self.skew_threshold or hot == cold:
            return None
        membership = cluster.membership
        return RebalanceProposal(
            hot_node=hot,
            cold_node=cold,
            hot_token=membership.tokens[hot],
            cold_token=membership.tokens[cold],
            skew=skew,
            loads=loads,
            step=self.step,
        )

    # ---------------------------------------------------------- execution

    def execute(self, proposal: RebalanceProposal) -> RebalanceReport:
        """Apply a proposal: update ring weights, rebind, and ship every
        relocated row through the charged migration path."""
        cluster = self.cluster
        _require_elastic_views(cluster, "rebalance")
        _check_no_open_scope(cluster, "rebalance")
        membership = cluster.membership
        default = self._consistent_vnodes()
        if default is None:
            raise RuntimeError("no consistent-hash object to rebalance")
        weights = membership.weights
        hot_weight = weights.get(proposal.hot_token, default)
        new_hot = max(self.min_weight, hot_weight - proposal.step)
        shifted = hot_weight - new_hot
        if shifted == 0:
            raise RuntimeError(
                f"token {proposal.hot_token} is already at the minimum ring "
                f"weight {self.min_weight}"
            )
        with cluster.obs.span(
            "rebalance", hot=proposal.hot_node, cold=proposal.cold_node,
            skew=round(proposal.skew, 4), step=shifted,
        ):
            cluster._drain_parallel()
            weights[proposal.hot_token] = new_hot
            weights[proposal.cold_token] = (
                weights.get(proposal.cold_token, default) + shifted
            )
            report = RebalanceReport(proposal=proposal, epoch=membership.epoch + 1)
            identity = {i: i for i in range(cluster.num_nodes)}
            survivors = frozenset(identity)
            with _replication_paused(cluster.replicator):
                for name, info in _partitioned_objects(cluster):
                    if not isinstance(
                        info.partitioner, BoundConsistentHash  # type: ignore[attr-defined]
                    ):
                        continue
                    bound = _rebind(
                        cluster, info, cluster.num_nodes, membership.tokens
                    )
                    moves = _plan_moves(
                        cluster, name, bound, identity, survivors, None
                    )
                    info.partitioner = bound  # type: ignore[attr-defined]
                    count = _execute_moves(cluster, name, moves, Tag.MIGRATE)
                    if count:
                        report.moved[name] = count
            if cluster.replicator is not None:
                cluster.replicator.sync(charged=True)
            membership.record(
                "rebalance", proposal.hot_node, proposal.hot_token,
                detail=proposal.describe(),
            )
            cluster.catalog.bump_version()
            if cluster._sanitizer is not None:
                cluster._sanitizer.check("rebalance")
        return report

    def run_once(self) -> Optional[RebalanceReport]:
        """One observe→propose→execute cycle; ``None`` when balanced."""
        proposal = self.propose()
        if proposal is None:
            return None
        return self.execute(proposal)
