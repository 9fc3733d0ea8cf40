"""The hybrid maintenance method (paper §4).

The conclusion suggests that "in many cases, it is possible that a hybrid
method will outperform any of the three methods" and starts listing
heuristics (the published text truncates there).  This module implements
the natural instantiation: choose the auxiliary structure **per base
relation**, instead of one method for the whole view —

* a relation already partitioned on the join attribute needs nothing
  (every method agrees);
* a *small* join partner gets an auxiliary relation: the copy is cheap and
  probes touch exactly one node;
* a *large* join partner gets a global index: an entry per tuple instead
  of a row copy per tuple, at the cost of visiting K nodes.

``ar_row_budget`` is the storage knob: partners at or below it get ARs.
Plan resolution then prefers, per hop, whatever structure exists —
co-located base > AR > GI > broadcast — so a hybrid view mixes one-node
and K-node hops in a single maintenance plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .view import BoundView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster

#: Partners with at most this many rows get an AR by default; the value is
#: a storage/speed knob, not a tuning constant from the paper.
DEFAULT_AR_ROW_BUDGET = 10_000


def provision_hybrid(
    cluster: "Cluster",
    bound: BoundView,
    ar_row_budget: int = DEFAULT_AR_ROW_BUDGET,
    choices: Dict[str, str] | None = None,
) -> Dict[str, str]:
    """Provision per-relation structures for a hybrid view.

    ``choices`` overrides the size heuristic per relation name with
    ``"auxiliary"`` or ``"global_index"``.  Returns the decision made for
    each relation (``"none"`` when it is partitioned on its join column).
    """
    view_name = bound.definition.name
    decisions: Dict[str, str] = {}
    overrides = choices or {}
    for relation in bound.definition.relations:
        info = cluster.catalog.relation(relation)
        for column in bound.definition.join_columns_of(relation):
            if info.is_partitioned_on(column):
                if column not in info.indexes:
                    cluster.create_index(relation, column, clustered=False)
                decisions.setdefault(relation, "none")
                continue
            choice = overrides.get(relation)
            if choice is None:
                choice = (
                    "auxiliary"
                    if cluster.statistics.rows(relation) <= ar_row_budget
                    else "global_index"
                )
            if choice == "auxiliary":
                if cluster.catalog.find_auxiliary(relation, column) is None:
                    created = cluster.create_auxiliary_relation(relation, column)
                    created.serves_views.append(view_name)
            elif choice == "global_index":
                if cluster.catalog.find_global_index(relation, column) is None:
                    created = cluster.create_global_index(
                        relation,
                        column,
                        distributed_clustered=info.indexes.get(column) is True,
                    )
                    created.serves_views.append(view_name)
            else:
                raise ValueError(
                    f"hybrid choice for {relation!r} must be 'auxiliary' or "
                    f"'global_index', not {choice!r}"
                )
            decisions[relation] = choice
    return decisions
