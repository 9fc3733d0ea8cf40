"""Shared multi-view maintenance: one delta-propagation DAG per statement.

The paper maintains a *single* join view; a cluster here registers many.
Maintaining each independently makes a statement over a base relation with
V overlapping views pay V partition passes over the same delta, V probe
rounds over the same join keys, and V network fan-outs.  Following the
multi-query-optimization observation (Mistry et al., PAPERS.md) that the
real multi-view win is sharing common subexpressions and transient delta
results, this module turns the per-view loop into a DAG:

- **group** — registered eager maintainers are grouped by their compiled
  join (strategy + :class:`~repro.core.multiway.CompiledJoin` identity;
  views differing only in projection share one compiled join, see
  ``optimizer._shared_join``);
- **join once per group** — the group's first member runs the partition
  pass and probe rounds exactly as an independent view would (PR 2's
  batched engine, including its per-statement probe memo), billed once;
- **fan out** — every member consumes the shared intermediates through its
  own ``_consume_join``: plain views project with their own select list,
  aggregate views fold group contributions.  Deferred wrappers queue the
  delta as before (their inner maintainer shares on refresh only with
  itself, so they pass through);
- **cross-group memo** — a statement-scoped :class:`SharedMaintenanceContext`
  lets *different* groups that probe the same (fragment, column, node, key)
  slot — or the same GI key — reuse the answer without re-executing or
  re-charging it.

Charge attribution (DESIGN.md § 13): within one statement, each distinct
probe is billed exactly once, by the first group that executes it; later
groups and later members ride free.  Per-view VIEW-tagged writes stay per
view.  Single-view statements never enter this path, so their ledgers are
bit-identical to independent maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..storage.schema import Row
from .aggregates import AggregateViewMaintainer
from .delta import Delta
from .maintenance import JoinViewMaintainer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster


class SharedMaintenanceContext:
    """Statement-scoped memo of probe answers shared across view groups.

    Installed on the cluster as ``_shared_ctx`` for the duration of one
    shared multi-view statement; the batched INL hops consult it before
    touching storage.  Slots are keyed on the *physical* read — fragment,
    column, node, key — so any two hops that would read the same index
    entry share, regardless of which view (or hop shape: co-located and
    broadcast probes share one namespace) asked first.
    """

    __slots__ = ("_probes", "_gi", "probes_executed", "probes_shared")

    def __init__(self) -> None:
        self._probes: Dict[Tuple[str, str, int, object], List[Row]] = {}
        self._gi: Dict[Tuple[str, object], List[Tuple[int, List[Row]]]] = {}
        #: distinct probes actually executed (and billed) this statement
        self.probes_executed = 0
        #: probe answers served from the memo (work and charges avoided)
        self.probes_shared = 0

    def lookup(
        self, fragment: str, column: str, node: int, key: object
    ) -> Optional[List[Row]]:
        rows = self._probes.get((fragment, column, node, key))
        if rows is not None:
            self.probes_shared += 1
        return rows

    def store(
        self, fragment: str, column: str, node: int, key: object, rows: List[Row]
    ) -> None:
        self._probes[(fragment, column, node, key)] = rows
        self.probes_executed += 1

    def lookup_gi(
        self, gi_name: str, key: object
    ) -> Optional[List[Tuple[int, List[Row]]]]:
        fetched = self._gi.get((gi_name, key))
        if fetched is not None:
            self.probes_shared += 1
        return fetched

    def store_gi(
        self, gi_name: str, key: object, fetched: List[Tuple[int, List[Row]]]
    ) -> None:
        self._gi[(gi_name, key)] = fetched
        self.probes_executed += 1


@dataclass
class MultiViewStats:
    """Counters proving (or disproving) that sharing happened.

    ``partition_passes`` counts group executions: with V same-clause views
    the shared path runs ONE partition pass per statement where the
    independent loop runs V.  ``probes_deduped`` counts probe executions
    avoided — (members - 1) per probe the group representative ran, plus
    every cross-group memo hit.
    """

    statements: int = 0
    partition_passes: int = 0
    probes_executed: int = 0
    probes_deduped: int = 0
    last_partition_passes: int = 0
    last_probes_deduped: int = 0

    @property
    def partition_passes_per_statement(self) -> float:
        if not self.statements:
            return 0.0
        return self.partition_passes / self.statements

def _shareable(maintainer: object) -> bool:
    """Whether a maintainer may join a shared group.

    Exact types only: a plain eager join maintainer, or the aggregate
    subclass (which keeps the base join computation and overrides only
    ``_consume_join``).  Anything else — deferred wrappers, unknown
    subclasses — runs its own ``apply`` untouched.
    """
    return type(maintainer) is JoinViewMaintainer or (
        type(maintainer) is AggregateViewMaintainer
    )


def maintain_views(cluster: "Cluster", delta: Delta) -> None:
    """Maintain every view registered on ``delta.relation``.

    The shared DAG engages only when it can pay off *and* stay honest:
    at least two views, the batched engine running the statement
    (``Cluster._bulk_ok`` — the gate the join hops and the bulk writes
    read too; open undo scopes and replication do not close it), and
    sharing enabled on the cluster.  Otherwise this is exactly the
    historical per-view loop, so single-view clusters (and every fault
    path) keep bit-identical ledgers, network counters, and fragment
    contents.
    """
    views = cluster.catalog.views_on(delta.relation)
    if (
        len(views) < 2
        or delta.is_empty
        or not cluster.shared_maintenance
        or not cluster._bulk_ok()
    ):
        for view in views:
            view.maintainer.apply(delta)
        return

    # One partition pass + probe round per distinct compiled join.  The
    # grouping key is the shared CompiledJoin *instance* (one per clause
    # per catalog version, courtesy of the cluster-level compiled-join
    # cache) plus the join strategy, so a DDL mid-stream rebuilds the
    # groups automatically on the next statement.
    groups: Dict[Tuple, List[Tuple[JoinViewMaintainer, object]]] = {}
    passthrough = []
    for view in views:
        maintainer = view.maintainer
        if _shareable(maintainer):
            compiled = maintainer.planner.compiled_for(delta.relation)
            key = (maintainer.strategy, compiled.join)
            groups.setdefault(key, []).append((maintainer, compiled))
        else:
            passthrough.append(maintainer)

    if all(len(members) < 2 for members in groups.values()):
        # Nothing shares: run the historical loop verbatim (in particular,
        # no statement-scoped memo, so charges are untouched).
        for view in views:
            view.maintainer.apply(delta)
        return

    stats = cluster.multi_view_stats
    obs = cluster.obs
    context = SharedMaintenanceContext()
    statement_deduped = 0
    cluster._shared_ctx = context
    try:
        for members in groups.values():
            representative, rep_compiled = members[0]
            with obs.span(
                "maintain_shared",
                views=",".join(m.view_info.name for m, _ in members),
                method=representative.method.value,
                relation=delta.relation,
                group_size=len(members),
            ):
                executed_before = context.probes_executed
                view_deletes = representative._compute_join(
                    rep_compiled, delta.deletes
                )
                view_inserts = representative._compute_join(
                    rep_compiled, delta.inserts
                )
                executed = context.probes_executed - executed_before
                for maintainer, compiled in members:
                    maintainer._consume_join(compiled, view_inserts, view_deletes)
            stats.partition_passes += 1
            statement_deduped += executed * (len(members) - 1)
    finally:
        cluster._shared_ctx = None
    for maintainer in passthrough:
        maintainer.apply(delta)
    statement_deduped += context.probes_shared
    stats.statements += 1
    stats.probes_executed += context.probes_executed
    stats.probes_deduped += statement_deduped
    stats.last_partition_passes = len(groups)
    stats.last_probes_deduped = statement_deduped
