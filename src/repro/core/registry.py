"""View registration: wire a definition, a method, and a cluster together.

:func:`define_join_view` is the library's CREATE VIEW: it binds the
definition against the catalog, provisions whatever the chosen method needs
(local indexes, auxiliary relations, global indexes), creates the view's
partitioned storage, registers the maintainer, and materializes the initial
contents from the current base data (an uncharged offline build, like the
paper's pre-built orders_1/lineitem_1 copies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cluster.catalog import ViewInfo
from ..cluster.membership import _check_no_open_scope
from .auxiliary import provision_auxiliary
from .global_index import provision_global_index
from .maintenance import JoinStrategy, JoinViewMaintainer, MaintenanceMethod
from .naive import provision_naive
from .optimizer import MaintenancePlanner
from .statistics import StatisticsCache
from .view import BoundView, JoinViewDefinition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster


def define_join_view(
    cluster: "Cluster",
    definition: JoinViewDefinition,
    method: "MaintenanceMethod | str" = MaintenanceMethod.AUXILIARY,
    strategy: "JoinStrategy | str" = JoinStrategy.AUTO,
    trim_auxiliaries: bool = False,
    clustered_base_indexes: bool = False,
    statistics: Optional[StatisticsCache] = None,
    initial_load: bool = True,
    hybrid_options: Optional[dict] = None,
) -> ViewInfo:
    """Create and register a maintained join view on ``cluster``.

    Parameters
    ----------
    definition:
        The view: relations, equi-join conditions, select list, placement.
    method:
        ``"naive"``, ``"auxiliary"``, or ``"global_index"``.
    strategy:
        How deltas join with partners: ``"auto"`` (cost-based, the default),
        ``"inl"`` (always index nested loops), ``"sort_merge"``.
    trim_auxiliaries:
        With the auxiliary method, keep only the columns this view needs in
        each created AR (paper §2.1.2's storage minimization).
    clustered_base_indexes:
        With the naive method, request clustered indexes on the probed join
        attributes where the fragment is not already clustered otherwise.
    initial_load:
        Materialize the view from the current base contents (uncharged).
    hybrid_options:
        With the hybrid method, keyword arguments for
        :func:`repro.core.hybrid.provision_hybrid` (``ar_row_budget``,
        per-relation ``choices``).
    """
    _check_no_open_scope(cluster, "define_join_view")
    cluster.catalog.ensure_name_free(definition.name)
    method = MaintenanceMethod.coerce(method)
    if isinstance(strategy, str):
        strategy = JoinStrategy(strategy)
    schemas = {
        name: cluster.catalog.relation(name).schema for name in definition.relations
    }
    bound = BoundView(definition, schemas)

    if method is MaintenanceMethod.NAIVE:
        provision_naive(cluster, bound, clustered_indexes=clustered_base_indexes)
    elif method is MaintenanceMethod.AUXILIARY:
        provision_auxiliary(cluster, bound, trim=trim_auxiliaries)
    elif method is MaintenanceMethod.HYBRID:
        from .hybrid import provision_hybrid

        provision_hybrid(cluster, bound, **(hybrid_options or {}))
    else:
        provision_global_index(cluster, bound)

    partitioner = cluster.create_view_storage(bound.schema, definition.partitioning)
    planner = MaintenancePlanner(cluster, bound, method, statistics)
    view_info = ViewInfo(
        name=definition.name,
        definition=definition,
        schema=bound.schema,
        partitioner=partitioner,
        maintainer=None,  # set right below; ViewInfo is the shared handle
        method=method.value,
    )
    maintainer = JoinViewMaintainer(cluster, view_info, bound, planner, strategy)
    view_info.maintainer = maintainer
    cluster.catalog.add_view(view_info, list(definition.relations))

    if initial_load:
        materialize(maintainer)
    return view_info


def materialize(maintainer: JoinViewMaintainer) -> None:
    """Write ``maintainer.derive()`` into the view's empty fragments
    without charging the ledger."""
    view_info = maintainer.view_info
    nodes = maintainer.cluster.nodes
    for node_id, rows in maintainer.derive().items():
        fragment = nodes[node_id].fragment(view_info.name)
        for row in rows:
            fragment.insert(row)


def recompute_view(cluster: "Cluster", view_name: str):
    """The view's contents recomputed from scratch (bag), for verification."""
    view_info = cluster.catalog.view(view_name)
    definition: JoinViewDefinition = view_info.definition  # type: ignore[assignment]
    schemas = {
        name: cluster.catalog.relation(name).schema for name in definition.relations
    }
    bound = BoundView(definition, schemas)
    contents = {
        name: cluster.scan_relation(name) for name in definition.relations
    }
    return bound.evaluate(contents)
