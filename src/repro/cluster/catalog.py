"""The cluster catalog: what exists, where it is partitioned, what serves what.

The catalog records base relations, auxiliary relations (with their
projection/selection trimming), global indexes, and join views, plus the
reverse maps the update path needs: given an updated base relation, which
auxiliary structures must be co-updated and which view maintainers must run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from ..storage.global_index import GlobalRowId
from ..storage.schema import Row, Schema
from .partitioning import (
    BoundPartitioner,
    BoundRoundRobin,
    PartitioningSpec,
    stable_hash,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node


@dataclass
class RelationInfo:
    """A base relation: schema, placement, and declared local indexes."""

    schema: Schema
    spec: PartitioningSpec
    partitioner: BoundPartitioner | BoundRoundRobin
    indexes: Dict[str, bool] = field(default_factory=dict)  # column -> clustered

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def partition_column(self) -> Optional[str]:
        return getattr(self.partitioner, "column", None)

    def is_partitioned_on(self, column: str) -> bool:
        return self.partition_column == column


@dataclass
class AuxiliaryRelationInfo:
    """An auxiliary relation: AR_R = partition(select(project(R))).

    ``columns`` is the projection kept (None = all of R's columns) and
    ``predicate`` the optional selection; both implement the storage-overhead
    minimization of paper §2.1.2.  The AR is hash-partitioned on ``column``
    (a join attribute of R) and clustered on it, mirroring Teradata's
    automatic clustered index on the partitioning attribute.
    """

    name: str
    base: str
    column: str
    schema: Schema
    partitioner: BoundPartitioner
    columns: Optional[Tuple[str, ...]] = None
    predicate: Optional[Callable[[Row], bool]] = None
    serves_views: List[str] = field(default_factory=list)
    project: Callable[[Row], Row] = field(default=lambda row: row)

    def image_of(self, base_row: Row) -> Optional[Row]:
        """The AR row a base row maps to, or None if the selection drops it."""
        if self.predicate is not None and not self.predicate(base_row):
            return None
        return self.project(base_row)

    def derive(self, nodes: Iterable["Node"]) -> Iterable[Dict[int, List[Row]]]:
        """The AR recomputed from its base: one ``{node: [images]}`` batch
        per source node, in node-id then scan order (DESIGN.md §14), for
        the DDL backfill and ``repair()`` to write one batch at a time."""
        keep = self.predicate
        for node in nodes:
            if node.has_fragment(self.base):
                rows = node.scan(self.base)
                kept = rows if keep is None else filter(keep, rows)
                yield self.partitioner.split(map(self.project, kept))


@dataclass
class GlobalIndexInfo:
    """A global index GI_R on R.c, hash-partitioned on c."""

    name: str
    base: str
    column: str
    distributed_clustered: bool
    key_position: int
    num_nodes: int
    serves_views: List[str] = field(default_factory=list)

    def home_node(self, key: object) -> int:
        return stable_hash(key) % self.num_nodes

    def derive(
        self, nodes: Iterable["Node"]
    ) -> Iterable[Dict[int, List[Tuple[object, GlobalRowId]]]]:
        """The GI recomputed from its base: one ``{home: [(key, grid)]}``
        batch per source node, in node-id then scan order (DESIGN.md §14),
        for the DDL backfill, ``repair()`` and the membership remap."""
        position = self.key_position
        home_node = self.home_node
        for node in nodes:
            if not node.has_fragment(self.base):
                continue
            placed: Dict[int, List[Tuple[object, GlobalRowId]]] = {}
            for rowid, row in node.fragment(self.base).table.scan():
                key = row[position]
                placed.setdefault(home_node(key), []).append(
                    (key, GlobalRowId(node.node_id, rowid))
                )
            yield placed


@dataclass
class ViewInfo:
    """A registered materialized join view and its maintainer."""

    name: str
    definition: object  # core.view.JoinViewDefinition; kept loose to avoid a cycle
    schema: Schema
    partitioner: BoundPartitioner | BoundRoundRobin
    maintainer: object  # core.maintenance.ViewMaintainer
    method: str = ""


class Catalog:
    """All metadata for one cluster, with reverse maps for the update path."""

    def __init__(self) -> None:
        self.relations: Dict[str, RelationInfo] = {}
        self.auxiliaries: Dict[str, AuxiliaryRelationInfo] = {}
        self.global_indexes: Dict[str, GlobalIndexInfo] = {}
        self.views: Dict[str, ViewInfo] = {}
        self._aux_of_base: Dict[str, List[str]] = {}
        self._gi_of_base: Dict[str, List[str]] = {}
        self._views_on_base: Dict[str, List[str]] = {}
        #: Monotone counter bumped on every DDL-level change (objects or
        #: indexes added/removed).  Compiled maintenance plans, output
        #: mappers, and filter tables are cached keyed on this version, so
        #: any catalog change invalidates them without explicit wiring.
        self.version: int = 0

    def bump_version(self) -> None:
        """Invalidate every version-keyed cache (compiled plans etc.)."""
        self.version += 1

    # ----------------------------------------------------------- register

    def ensure_name_free(self, name: str) -> None:
        """Public pre-check so DDL can fail before creating any storage."""
        self._require_fresh(name)

    def _require_fresh(self, name: str) -> None:
        taken = (
            name in self.relations
            or name in self.auxiliaries
            or name in self.global_indexes
            or name in self.views
        )
        if taken:
            raise ValueError(f"catalog name {name!r} is already in use")

    def add_relation(self, info: RelationInfo) -> None:
        self._require_fresh(info.name)
        self.relations[info.name] = info
        self.bump_version()

    def add_auxiliary(self, info: AuxiliaryRelationInfo) -> None:
        self._require_fresh(info.name)
        if info.base not in self.relations:
            raise KeyError(f"auxiliary {info.name!r}: unknown base {info.base!r}")
        self.auxiliaries[info.name] = info
        self._aux_of_base.setdefault(info.base, []).append(info.name)
        self.bump_version()

    def add_global_index(self, info: GlobalIndexInfo) -> None:
        self._require_fresh(info.name)
        if info.base not in self.relations:
            raise KeyError(f"global index {info.name!r}: unknown base {info.base!r}")
        self.global_indexes[info.name] = info
        self._gi_of_base.setdefault(info.base, []).append(info.name)
        self.bump_version()

    def add_view(self, info: ViewInfo, base_relations: List[str]) -> None:
        self._require_fresh(info.name)
        for base in base_relations:
            if base not in self.relations:
                raise KeyError(f"view {info.name!r}: unknown base {base!r}")
        self.views[info.name] = info
        for base in base_relations:
            self._views_on_base.setdefault(base, []).append(info.name)
        self.bump_version()

    # --------------------------------------------------------------- drop

    def remove_view(self, name: str) -> ViewInfo:
        info = self.view(name)
        del self.views[name]
        for views in self._views_on_base.values():
            if name in views:
                views.remove(name)
        for aux in self.auxiliaries.values():
            if name in aux.serves_views:
                aux.serves_views.remove(name)
        for gi in self.global_indexes.values():
            if name in gi.serves_views:
                gi.serves_views.remove(name)
        self.bump_version()
        return info

    def remove_auxiliary(self, name: str, force: bool = False) -> AuxiliaryRelationInfo:
        info = self.auxiliary(name)
        if info.serves_views and not force:
            raise ValueError(
                f"auxiliary relation {name!r} still serves views "
                f"{info.serves_views}; drop them first or pass force=True"
            )
        del self.auxiliaries[name]
        self._aux_of_base[info.base].remove(name)
        self.bump_version()
        return info

    def remove_global_index(self, name: str, force: bool = False) -> GlobalIndexInfo:
        info = self.global_index(name)
        if info.serves_views and not force:
            raise ValueError(
                f"global index {name!r} still serves views "
                f"{info.serves_views}; drop them first or pass force=True"
            )
        del self.global_indexes[name]
        self._gi_of_base[info.base].remove(name)
        self.bump_version()
        return info

    # ------------------------------------------------------------- lookup

    def relation(self, name: str) -> RelationInfo:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}") from None

    def auxiliary(self, name: str) -> AuxiliaryRelationInfo:
        try:
            return self.auxiliaries[name]
        except KeyError:
            raise KeyError(f"unknown auxiliary relation {name!r}") from None

    def global_index(self, name: str) -> GlobalIndexInfo:
        try:
            return self.global_indexes[name]
        except KeyError:
            raise KeyError(f"unknown global index {name!r}") from None

    def view(self, name: str) -> ViewInfo:
        try:
            return self.views[name]
        except KeyError:
            raise KeyError(f"unknown view {name!r}") from None

    def auxiliaries_of(self, base: str) -> List[AuxiliaryRelationInfo]:
        return [self.auxiliaries[n] for n in self._aux_of_base.get(base, [])]

    def global_indexes_of(self, base: str) -> List[GlobalIndexInfo]:
        return [self.global_indexes[n] for n in self._gi_of_base.get(base, [])]

    def views_on(self, base: str) -> List[ViewInfo]:
        return [self.views[n] for n in self._views_on_base.get(base, [])]

    def find_auxiliary(self, base: str, column: str) -> Optional[AuxiliaryRelationInfo]:
        """An existing AR of ``base`` partitioned on ``column``, if any."""
        for info in self.auxiliaries_of(base):
            if info.column == column:
                return info
        return None

    def find_global_index(self, base: str, column: str) -> Optional[GlobalIndexInfo]:
        for info in self.global_indexes_of(base):
            if info.column == column:
                return info
        return None
