"""Maintenance plans for views over two or more base relations.

Paper §2.2: when base relation ``R_i`` is updated, its delta must be joined
with every other relation of the view, one *hop* at a time, where each hop
probes either the partner's base fragments (naive, or when the partner is
already partitioned on the join attribute), an auxiliary relation, or a
global index.  With more than two relations "there are many choices as to
how to use the auxiliary relations, and an optimization problem arises" —
this module enumerates the legal hop orders; :mod:`repro.core.optimizer`
prices them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..storage.schema import Row, Schema
from .view import BoundView, JoinCondition, ViewDefinitionError


@dataclass(frozen=True)
class BaseAccess:
    """Probe the partner's base fragments through a local index.

    ``broadcast=True`` is the naive all-node probe; ``broadcast=False``
    means the partner is hash-partitioned on the probed column, so the
    single owning node is probed (the free ride every method exploits).
    """

    relation: str
    column: str
    broadcast: bool
    clustered: bool

    @property
    def fragment_name(self) -> str:
        return self.relation

    def describe(self) -> str:
        kind = "broadcast" if self.broadcast else "co-located"
        cl = "clustered" if self.clustered else "non-clustered"
        return f"base[{self.relation}.{self.column}, {kind}, {cl}]"


@dataclass(frozen=True)
class AuxiliaryAccess:
    """Probe an auxiliary relation AR_partner partitioned on the join column."""

    ar_name: str
    relation: str
    column: str

    @property
    def fragment_name(self) -> str:
        return self.ar_name

    def describe(self) -> str:
        return f"aux[{self.ar_name} on {self.relation}.{self.column}]"


@dataclass(frozen=True)
class GlobalIndexAccess:
    """Probe a global index GI_partner, then fetch at the K owning nodes."""

    gi_name: str
    relation: str
    column: str
    distributed_clustered: bool

    @property
    def fragment_name(self) -> str:
        return self.relation

    def describe(self) -> str:
        cl = "distributed clustered" if self.distributed_clustered else "distributed non-clustered"
        return f"gi[{self.gi_name} on {self.relation}.{self.column}, {cl}]"


AccessPath = Union[BaseAccess, AuxiliaryAccess, GlobalIndexAccess]


@dataclass(frozen=True)
class Hop:
    """One join step: probe ``partner`` with the value of
    ``left_relation.left_column`` taken from the running intermediate.

    ``extra_filters`` are additional join conditions between the partner and
    already-joined relations (they arise in cyclic join graphs, e.g. the
    paper's triangle A⋈B⋈C⋈A example, where the closing hop connects on two
    edges: one is probed, the other filtered).
    """

    partner: str
    left_relation: str
    left_column: str
    right_column: str
    access: AccessPath
    contributed: Schema  # schema of the rows this hop splices in
    extra_filters: Tuple[JoinCondition, ...] = ()

    def describe(self) -> str:
        return (
            f"{self.left_relation}.{self.left_column} -> "
            f"{self.partner}.{self.right_column} via {self.access.describe()}"
        )


@dataclass(frozen=True)
class MaintenancePlan:
    """The full recipe for propagating one base relation's delta."""

    view: str
    updated: str
    updated_schema: Schema
    hops: Tuple[Hop, ...]

    @property
    def join_order(self) -> Tuple[str, ...]:
        return (self.updated,) + tuple(hop.partner for hop in self.hops)

    def describe(self) -> str:
        lines = [f"plan for Δ{self.updated} -> view {self.view}:"]
        lines.extend(f"  {i + 1}. {hop.describe()}" for i, hop in enumerate(self.hops))
        return "\n".join(lines)


@dataclass(frozen=True)
class HopChoice:
    """An access-path-free hop candidate produced by order enumeration."""

    partner: str
    probe: JoinCondition
    extra_filters: Tuple[JoinCondition, ...]


def enumerate_orders(
    bound: BoundView, updated: str
) -> List[Tuple[HopChoice, ...]]:
    """All hop orders for a delta on ``updated``.

    Each order covers every other relation exactly once, and each hop's
    partner is connected by at least one join condition to the relations
    already covered.  For the paper's triangle example this yields exactly
    the four alternatives listed in §2.2.
    """
    definition = bound.definition
    if updated not in definition.relations:
        raise ViewDefinitionError(
            f"{updated!r} is not a base relation of view {definition.name!r}"
        )
    orders: List[Tuple[HopChoice, ...]] = []

    def extend(covered: Tuple[str, ...], hops: Tuple[HopChoice, ...]) -> None:
        if len(covered) == len(definition.relations):
            orders.append(hops)
            return
        for partner in definition.relations:
            if partner in covered:
                continue
            connecting = [
                condition
                for condition in definition.conditions
                if condition.touches(partner) and condition.other(partner)[0] in covered
            ]
            if not connecting:
                continue
            # Any connecting condition may serve as the probe; the rest
            # become filters.  Distinct probe choices are distinct plans.
            for probe_index, probe in enumerate(connecting):
                extras = tuple(
                    c for i, c in enumerate(connecting) if i != probe_index
                )
                extend(
                    covered + (partner,),
                    hops + (HopChoice(partner, probe, extras),),
                )

    extend((updated,), ())
    return orders


@dataclass(frozen=True)
class CompiledHop:
    """One hop with its per-statement lookups resolved once.

    ``key_position`` is the flat position (in the running intermediate
    tuple) of the value that probes the partner; ``filters`` are the
    pre-resolved (left position, partner position) pairs of the hop's extra
    join conditions.  Both used to be recomputed on every statement; the
    batched execution engine caches them per (view, relation, catalog
    version).
    """

    hop: Hop
    key_position: int
    filters: Tuple[Tuple[int, int], ...]


class JoinLayout:
    """Flat layout of a plan's concatenated intermediate tuples.

    Everything here is derived from the plan's join shape alone — the
    updated relation, hop order, and each hop's contributed schema — never
    from any view's projection list.  Views that differ only in their
    select list therefore share one layout (and one :class:`CompiledJoin`)
    instead of compiling identical position tables per view.
    """

    __slots__ = ("plan", "total_arity", "_offsets", "_schemas")

    def __init__(self, plan: MaintenancePlan) -> None:
        self.plan = plan
        self._offsets: Dict[str, int] = {}
        self._schemas: Dict[str, Schema] = {}
        offset = 0
        for relation, schema in self._contributions(plan):
            self._offsets[relation] = offset
            self._schemas[relation] = schema
            offset += schema.arity
        self.total_arity = offset

    @staticmethod
    def _contributions(plan: MaintenancePlan):
        yield plan.updated, plan.updated_schema
        for hop in plan.hops:
            yield hop.partner, hop.contributed

    def position(self, relation: str, column: str) -> int:
        """Flat position of ``relation.column`` in the intermediate tuple."""
        try:
            schema = self._schemas[relation]
        except KeyError:
            raise ViewDefinitionError(
                f"plan for {self.plan.view!r} does not join {relation!r}"
            ) from None
        return self._offsets[relation] + schema.index_of(column)

    def prefix_arity(self, upto_hop: int) -> int:
        """Arity of the intermediate before hop index ``upto_hop`` runs."""
        arity = self.plan.updated_schema.arity
        for hop in self.plan.hops[:upto_hop]:
            arity += hop.contributed.arity
        return arity


@dataclass(frozen=True, eq=False)
class CompiledJoin:
    """The select-independent half of a compiled plan.

    Keyed on the join clause — ``(updated, updated_schema, hops)`` — so
    every view whose plan shares the clause shares this object (identity
    comparison is intentional: the cluster-level cache guarantees one
    instance per clause per catalog version, and the shared-maintenance
    grouper uses the instance itself as the group key).
    """

    plan: MaintenancePlan
    layout: JoinLayout
    hops: Tuple[CompiledHop, ...]


@dataclass(frozen=True)
class CompiledPlan:
    """A maintenance plan plus every derived artifact execution needs.

    Cached by :meth:`repro.core.optimizer.MaintenancePlanner.compiled_for`
    keyed on the catalog version (invalidation on any DDL change), so the
    per-statement cost of planning drops to one dict lookup.  The heavy
    half (``join``) is shared between views with the same join clause; only
    the thin :class:`OutputMapper` (select positions) is per view.
    """

    plan: MaintenancePlan
    mapper: "OutputMapper"
    hops: Tuple[CompiledHop, ...]
    join: CompiledJoin


def compile_join(plan: MaintenancePlan) -> CompiledJoin:
    """Resolve the layout, probe-key positions, and filter positions of a
    plan's join clause once — independent of any view's projection."""
    layout = JoinLayout(plan)
    compiled_hops = []
    for hop in plan.hops:
        key_position = layout.position(hop.left_relation, hop.left_column)
        filters = []
        for condition in hop.extra_filters:
            left_relation, left_column = condition.other(hop.partner)
            left_position = layout.position(left_relation, left_column)
            partner_position = hop.contributed.index_of(
                condition.column_of(hop.partner)
            )
            filters.append((left_position, partner_position))
        compiled_hops.append(CompiledHop(hop, key_position, tuple(filters)))
    return CompiledJoin(plan=plan, layout=layout, hops=tuple(compiled_hops))


def attach_select(bound: BoundView, join: CompiledJoin) -> CompiledPlan:
    """Wrap a (possibly shared) compiled join with one view's projection."""
    mapper = OutputMapper(bound, join.plan, layout=join.layout)
    return CompiledPlan(plan=join.plan, mapper=mapper, hops=join.hops, join=join)


class OutputMapper:
    """Maps a plan's concatenated intermediate tuples to view output rows.

    During execution the intermediate tuple is the concatenation of the
    delta row and each hop's contributed row, in plan order; schemas can be
    trimmed (auxiliary relations).  All position arithmetic lives in the
    select-independent :class:`JoinLayout`; the mapper adds only this
    view's resolved select positions on top.
    """

    def __init__(
        self,
        bound: BoundView,
        plan: MaintenancePlan,
        layout: JoinLayout | None = None,
    ) -> None:
        self.bound = bound
        self.plan = plan
        self.layout = layout if layout is not None else JoinLayout(plan)
        self._select_positions = tuple(
            self.position(relation, column) for relation, column in bound.select
        )

    @property
    def total_arity(self) -> int:
        return self.layout.total_arity

    def position(self, relation: str, column: str) -> int:
        """Flat position of ``relation.column`` in the intermediate tuple."""
        return self.layout.position(relation, column)

    def prefix_arity(self, upto_hop: int) -> int:
        """Arity of the intermediate before hop index ``upto_hop`` runs."""
        return self.layout.prefix_arity(upto_hop)

    def to_view_row(self, concatenated: Row) -> Row:
        """Project a fully-joined intermediate tuple to the view's schema."""
        return tuple(concatenated[i] for i in self._select_positions)
