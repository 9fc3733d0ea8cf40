"""The consistency auditor: recompute-and-diff after every fault run.

The materialized view, every auxiliary relation, and every global index
are *derived* state — each is a pure function of the base relations.  The
auditor recomputes those functions from scratch and diffs them against
what the cluster actually stores:

* **views** — bag-compare the materialized rows against a from-scratch
  evaluation of the view definition (deferred views are flushed first, so
  staleness-by-design is not reported as corruption);
* **auxiliary relations** — bag-compare each AR against the
  selection/projection image of its base, and check every stored AR row
  sits on the node its partitioning key hashes to;
* **global indexes** — rebuild the expected ``(home node, key, grid)``
  entry set from the base fragments (rid-lists must point at live rows
  with the right key, homed at the key's hash node) and compare; and
* **base relations** — check hash placement of every stored row.

Auditing is read-only and uncharged (it is the experimenter's oracle, not
part of the modeled system).  :meth:`ConsistencyAuditor.repair` is the
complementary *graceful degradation* path: rebuild all derived state from
the bases by naive recomputation — the fallback when undo/replay recovery
is unavailable or has been bypassed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster


def _rounded(rows) -> Counter:
    """A bag of rows with floats rounded to 9 places: running SUMs and a
    recomputation add the same values in different orders."""
    return Counter(
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in rows
    )


@dataclass
class Discrepancy:
    """One detected divergence between stored and recomputed state."""

    kind: str          # "view" | "auxiliary" | "global_index" | "placement"
    name: str
    missing: Counter   # expected but not stored
    unexpected: Counter  # stored but not expected
    detail: str = ""

    def describe(self) -> str:
        parts = [f"[{self.kind}] {self.name}:"]
        if self.missing:
            parts.append(f"missing {sum(self.missing.values())} "
                         f"(e.g. {next(iter(self.missing))!r})")
        if self.unexpected:
            parts.append(f"unexpected {sum(self.unexpected.values())} "
                         f"(e.g. {next(iter(self.unexpected))!r})")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass
class AuditReport:
    """The outcome of one full audit pass."""

    findings: List[Discrepancy] = field(default_factory=list)
    views_checked: int = 0
    auxiliaries_checked: int = 0
    global_indexes_checked: int = 0
    relations_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        head = (
            f"audited {self.views_checked} view(s), "
            f"{self.auxiliaries_checked} auxiliary relation(s), "
            f"{self.global_indexes_checked} global index(es), "
            f"{self.relations_checked} base relation(s): "
        )
        if self.ok:
            return head + "consistent"
        lines = [head + f"{len(self.findings)} discrepancy(ies)"]
        lines.extend("  " + finding.describe() for finding in self.findings)
        return "\n".join(lines)


@dataclass
class RepairReport:
    """What :meth:`ConsistencyAuditor.repair` rebuilt."""

    auxiliaries_rebuilt: List[str] = field(default_factory=list)
    global_indexes_rebuilt: List[str] = field(default_factory=list)
    views_rebuilt: List[str] = field(default_factory=list)


class ConsistencyAuditor:
    """Recomputes derived state from the bases and diffs it against storage."""

    def __init__(self, cluster: "Cluster", flush_deferred: bool = True) -> None:
        self.cluster = cluster
        self.flush_deferred = flush_deferred

    # ---------------------------------------------------------------- audit

    def audit(self) -> AuditReport:
        """One full pass over every derived structure and placement."""
        report = AuditReport()
        for name in list(self.cluster.catalog.views):
            report.findings.extend(self.audit_view(name))
            report.views_checked += 1
        for name in list(self.cluster.catalog.auxiliaries):
            report.findings.extend(self.audit_auxiliary(name))
            report.auxiliaries_checked += 1
        for name in list(self.cluster.catalog.global_indexes):
            report.findings.extend(self.audit_global_index(name))
            report.global_indexes_checked += 1
        for name in list(self.cluster.catalog.relations):
            report.findings.extend(self.audit_placement(name))
            report.relations_checked += 1
        report.findings.extend(self.audit_replicas())
        return report

    def audit_replicas(self) -> List[Discrepancy]:
        """Bag-compare every replica copy against its primary fragment.

        Replicas are derived state too: each bag must hold exactly the
        owner's live fragment contents.  Skipped (empty list) when
        replication is disabled.
        """
        replicator = getattr(self.cluster, "replicator", None)
        if replicator is None:
            return []
        findings: List[Discrepancy] = []
        for owner, target, name in replicator._desired_slots():
            expected = Counter(self.cluster.nodes[owner].scan(name))
            actual = Counter(
                dict(self.cluster.nodes[target].replica_bag(owner, name))
            )
            findings.extend(
                self._diff(
                    "replica", f"{name}@{target} (owner {owner})",
                    expected, actual,
                )
            )
        return findings

    def audit_view(self, name: str) -> List[Discrepancy]:
        from ..core.aggregates import (
            AggregateViewMaintainer,
            aggregate_rows,
            recompute_aggregate,
        )
        from ..core.deferred import DeferredMaintainer
        from ..core.registry import recompute_view

        info = self.cluster.catalog.view(name)
        if self.flush_deferred and isinstance(info.maintainer, DeferredMaintainer):
            info.maintainer.flush_if_stale()
        maintainer = getattr(info.maintainer, "inner", info.maintainer)
        if isinstance(maintainer, AggregateViewMaintainer):
            # Stored rows are groups + running COUNT/SUMs, not join rows;
            # compare declared outputs, rounding away float summation order.
            expected = _rounded(recompute_aggregate(self.cluster, name))
            actual = _rounded(aggregate_rows(self.cluster, name))
        else:
            expected = Counter(recompute_view(self.cluster, name))
            actual = Counter(self.cluster.view_rows(name))
        return self._diff("view", name, expected, actual)

    def audit_auxiliary(self, name: str) -> List[Discrepancy]:
        aux = self.cluster.catalog.auxiliary(name)
        expected: Counter = Counter()
        for base_row in self.cluster.scan_relation(aux.base):
            image = aux.image_of(base_row)
            if image is not None:
                expected[image] += 1
        actual: Counter = Counter()
        findings: List[Discrepancy] = []
        for node in self.cluster.nodes:
            if not node.has_fragment(name):
                continue
            misplaced = 0
            for row in node.scan(name):
                actual[row] += 1
                if aux.partitioner.node_of_row(row) != node.node_id:
                    misplaced += 1
            if misplaced:
                findings.append(
                    Discrepancy(
                        kind="placement", name=name,
                        missing=Counter(), unexpected=Counter(),
                        detail=f"{misplaced} row(s) at node {node.node_id} "
                               "hash elsewhere",
                    )
                )
        findings.extend(self._diff("auxiliary", name, expected, actual))
        return findings

    def audit_global_index(self, name: str) -> List[Discrepancy]:
        gi = self.cluster.catalog.global_index(name)
        expected: Counter = Counter()
        for node in self.cluster.nodes:
            if not node.has_fragment(gi.base):
                continue
            for rowid, row in node.fragment(gi.base).table.scan():
                key = row[gi.key_position]
                expected[(gi.home_node(key), key, (node.node_id, rowid))] += 1
        actual: Counter = Counter()
        for node in self.cluster.nodes:
            try:
                partition = node.gi_partition(name)
            except KeyError:
                continue
            for key, grid in partition.entries():
                actual[(node.node_id, key, (grid.node, grid.rowid))] += 1
        return self._diff("global_index", name, expected, actual)

    def audit_placement(self, name: str) -> List[Discrepancy]:
        """Hash-placement check of a base relation's stored rows."""
        info = self.cluster.catalog.relation(name)
        node_of_row = getattr(info.partitioner, "node_of_row", None)
        if node_of_row is None or info.partition_column is None:
            return []  # round-robin: any placement is legal
        findings: List[Discrepancy] = []
        for node in self.cluster.nodes:
            if not node.has_fragment(name):
                continue
            misplaced = sum(
                1 for row in node.scan(name) if node_of_row(row) != node.node_id
            )
            if misplaced:
                findings.append(
                    Discrepancy(
                        kind="placement", name=name,
                        missing=Counter(), unexpected=Counter(),
                        detail=f"{misplaced} row(s) at node {node.node_id} "
                               "hash elsewhere",
                    )
                )
        return findings

    @staticmethod
    def _diff(
        kind: str, name: str, expected: Counter, actual: Counter
    ) -> List[Discrepancy]:
        missing = expected - actual
        unexpected = actual - expected
        if not missing and not unexpected:
            return []
        return [Discrepancy(kind=kind, name=name, missing=missing,
                            unexpected=unexpected)]

    # --------------------------------------------------------------- repair

    def repair(self) -> RepairReport:  # repro: no-undo=repair IS the recovery path; it rebuilds derived state outside any undo scope
        """Naive-recomputation fallback: rebuild every derived structure
        from the base relations.

        This is the graceful-degradation endpoint of the fault model: when
        an AR/GI node came back with unknown state, or recovery was run
        with the undo log disabled, correctness is restored by paying the
        full recomputation the naive method would — an offline rebuild,
        uncharged like the catalog's initial backfills (DESIGN.md § Fault
        model and atomicity).
        """
        from ..core.deferred import DeferredMaintainer

        cluster = self.cluster
        catalog = cluster.catalog
        # Repair rebuilds fragments in place, bypassing the superstep
        # engine: drain any worker pool so no replica survives the rebuild.
        cluster._drain_parallel()
        report = RepairReport()
        # (name, its derive() batches, the report list it lands in)
        rebuilds = [
            (name, aux.derive(cluster.nodes), report.auxiliaries_rebuilt)
            for name, aux in catalog.auxiliaries.items()
        ] + [
            (name, gi.derive(cluster.nodes), report.global_indexes_rebuilt)
            for name, gi in catalog.global_indexes.items()
        ]
        for name, info in catalog.views.items():
            maintainer = info.maintainer
            if isinstance(maintainer, DeferredMaintainer):
                maintainer.discard_pending()
                maintainer = maintainer.inner
            rebuilds.append((name, [maintainer.derive()], report.views_rebuilt))
        for name, batches, rebuilt in rebuilds:
            gi = catalog.global_indexes.get(name)
            for node in cluster.nodes:
                if gi is not None:
                    try:
                        node.gi_partition(name).clear()
                    except KeyError:
                        node.create_gi_partition(name, gi.base, gi.column)
                elif node.has_fragment(name):
                    fragment = node.fragment(name)
                    for rowid, _ in list(fragment.table.scan()):
                        fragment.delete(rowid)
            cluster._write_placed(name, batches)
            rebuilt.append(name)
        # Rebuilt fragments bypassed the replication hooks: re-converge the
        # replica bags (uncharged, like the rebuild itself).
        cluster._sync_replicas()
        return report
