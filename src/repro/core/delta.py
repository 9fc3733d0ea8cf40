"""Delta types: what changed in a base relation, and where.

Maintenance is driven by *placed* rows — the row together with the node and
local rowid it occupies — because the global-index method must record exactly
that placement, and because response-time accounting depends on which node
originated each delta tuple.

:class:`DeltaBlock` is the columnar (struct-of-arrays) form of the same
information: one block describes an ordered run of mutations against a
single ``(node, structure)`` target, with parallel ``array`` columns for the
op code, tag, physical rowid, and payload reference, plus one object column
for the row/key payloads.  The parallel engine uses blocks as its refresh
journal storage and as the wire format of worker envelopes — the ``array``
columns pickle as single flat buffers (out-of-band under protocol 5), so a
thousand-entry block costs a handful of pickle frames instead of a thousand
per-tuple tuples.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    SupportsIndex,
    Tuple,
)

from ..costs import Tag
from ..storage.schema import Row


@dataclass(frozen=True, slots=True)
class PlacedRow:
    """A row plus its physical location (node, local rowid)."""

    node: int
    rowid: int
    row: Row


@dataclass(slots=True)
class Delta:
    """The net change one DML statement made to one base relation.

    An SQL ``UPDATE`` is represented as matched deletes+inserts, per the
    paper's "the steps needed when a tuple is ... updated ... are similar"
    treatment.
    """

    relation: str
    inserts: List[PlacedRow] = field(default_factory=list)
    deletes: List[PlacedRow] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    def inserted_rows(self) -> List[Row]:
        return [placed.row for placed in self.inserts]

    def deleted_rows(self) -> List[Row]:
        return [placed.row for placed in self.deletes]

    def size(self) -> int:
        return len(self.inserts) + len(self.deletes)


#: Block kinds: which structure namespace the block's target name lives in.
FRAG_DELTA = "frag_delta"  # heap fragment of a base relation / AR / view
GI_DELTA = "gi_delta"  # global-index partition

#: Per-entry op codes (the ``ops`` column).
OP_INSERT = 0
OP_DELETE = 1

#: Stable one-byte encoding of :class:`~repro.costs.Tag` for the ``tags``
#: column.  Enum definition order is part of the repo's public cost model,
#: so the index is stable across processes of one build — and blocks only
#: ever travel between a coordinator and the workers it forked.
_TAGS: Tuple[Tag, ...] = tuple(Tag)
_TAG_CODES = {tag: code for code, tag in enumerate(_TAGS)}


def _rebuild_block(
    kind: str,
    node: int,
    name: str,
    typecodes: Sequence[str],
    ops: Any,
    tags: Any,
    rowids: Any,
    refs: Any,
    keys: Sequence[object],
) -> "DeltaBlock":
    """Reconstruct a :class:`DeltaBlock` from its pickled columns.

    ``ops``/``tags``/``rowids``/``refs`` arrive as buffer views —
    :class:`pickle.PickleBuffer` out-of-band buffers under protocol 5,
    in-band ``bytes`` otherwise (hence ``Any``); ``array.frombytes``
    accepts either.
    """
    block = DeltaBlock(kind, node, name)
    for column, typecode, data in zip(
        ("ops", "tags", "rowids", "refs"), typecodes, (ops, tags, rowids, refs)
    ):
        rebuilt = array(typecode)
        rebuilt.frombytes(data)
        setattr(block, column, rebuilt)
    block.keys = list(keys)
    return block


class DeltaBlock:
    """A columnar run of mutations against one ``(node, name)`` structure.

    Struct-of-arrays layout — four parallel ``array`` columns plus one
    object column, entry ``i`` spanning all five:

    ======== ============ ====================================================
    column   type         meaning
    ======== ============ ====================================================
    ops      ``array(b)`` :data:`OP_INSERT` or :data:`OP_DELETE`
    tags     ``array(b)`` :class:`~repro.costs.Tag` code (:data:`_TAG_CODES`)
    rowids   ``array(q)`` physical rowid (insert: assigned; delete: victim)
    refs     ``array(q)`` payload reference — the owner node of a GI entry's
                          :class:`GlobalRowId`; 0 for fragment entries
    keys     ``list``     row tuple (:data:`FRAG_DELTA`) or join key
                          (:data:`GI_DELTA`)
    ======== ============ ====================================================

    Entry order is application order: the parallel engine's refresh journal
    appends in coordinator execution order and workers apply ``entries()``
    front to back, which is what keeps worker-assigned rowids bit-identical
    to the coordinator's.  ``__reduce_ex__`` emits the ``array`` columns as
    :class:`pickle.PickleBuffer` views under protocol 5 so the transport can
    ship them out-of-band (zero-copy on the receive side).
    """

    __slots__ = ("kind", "node", "name", "ops", "tags", "rowids", "refs", "keys")

    def __init__(self, kind: str, node: int, name: str) -> None:
        self.kind = kind
        self.node = node
        self.name = name
        self.ops = array("b")
        self.tags = array("b")
        self.rowids = array("q")
        self.refs = array("q")
        self.keys: List[object] = []

    # ------------------------------------------------------------- building

    def add(
        self, op: int, rowid: int, key: object, tag: Tag, ref: int = 0
    ) -> None:
        """Append one entry (columns stay parallel by construction)."""
        self.ops.append(op)
        self.tags.append(_TAG_CODES[tag])
        self.rowids.append(rowid)
        self.refs.append(ref)
        self.keys.append(key)

    def extend(
        self, op: int, rowids: Sequence[int], keys: Sequence[object], tag: Tag,
        refs: Optional[Sequence[int]] = None,
    ) -> None:
        """Append a same-op, same-tag run in bulk.

        The columnar layout makes this nearly free — repeated one-byte
        columns fill from ``bytes`` constants and the wide columns extend
        at C speed — which is what keeps the refresh journal's cost per
        mutated statement inside the ``workers=1`` overhead budget.
        """
        count = len(rowids)
        if not count:
            return
        self.ops.frombytes(bytes(count) if op == 0 else bytes((op,)) * count)
        self.tags.frombytes(bytes((_TAG_CODES[tag],)) * count)
        self.rowids.extend(rowids)
        if refs is None:
            self.refs.frombytes(bytes(8 * count))  # zeros, q is 8 bytes wide
        else:
            self.refs.extend(refs)
        self.keys.extend(keys)

    # ------------------------------------------------------------ consuming

    def __len__(self) -> int:
        return len(self.ops)

    def entries(self) -> Iterator[Tuple[int, int, object, Tag, int]]:
        """Yield ``(op, rowid, key, tag, ref)`` per entry, in order."""
        tags = _TAGS
        for op, rowid, key, code, ref in zip(
            self.ops, self.rowids, self.keys, self.tags, self.refs
        ):
            yield op, rowid, key, tags[code], ref

    def tail(self, start: int) -> "DeltaBlock":
        """The columnar slice ``[start:]`` — the unit the refresh journal
        ships to a worker whose cursor stands at ``start``."""
        block = DeltaBlock(self.kind, self.node, self.name)
        block.ops = self.ops[start:]
        block.tags = self.tags[start:]
        block.rowids = self.rowids[start:]
        block.refs = self.refs[start:]
        block.keys = self.keys[start:]
        return block

    @property
    def nbytes(self) -> int:
        """Bytes held by the four fixed-width columns (the object column's
        payload is excluded — rows are shared, not owned)."""
        return sum(
            len(column) * column.itemsize
            for column in (self.ops, self.tags, self.rowids, self.refs)
        )

    # ------------------------------------------------- per-tuple round trip

    @classmethod
    def from_delta(cls, delta: "Delta", tag: Tag = Tag.BASE) -> List["DeltaBlock"]:
        """Per-node blocks equivalent to a placed :class:`Delta` — deletes
        first, then inserts, per-node order preserved (the serial engine's
        application order).  Nodes appear in first-touch order."""
        blocks: Dict[int, "DeltaBlock"] = {}
        for op, placed_rows in (
            (OP_DELETE, delta.deletes),
            (OP_INSERT, delta.inserts),
        ):
            for placed in placed_rows:
                block = blocks.get(placed.node)
                if block is None:
                    block = blocks[placed.node] = cls(
                        FRAG_DELTA, placed.node, delta.relation
                    )
                block.add(op, placed.rowid, placed.row, tag)
        return list(blocks.values())

    def to_delta(self) -> "Delta":
        """The per-tuple :class:`Delta` this fragment block encodes."""
        if self.kind != FRAG_DELTA:
            raise ValueError(f"to_delta on a {self.kind!r} block")
        delta = Delta(relation=self.name)
        for op, rowid, row, _tag, _ref in self.entries():
            target = delta.inserts if op == OP_INSERT else delta.deletes
            target.append(PlacedRow(self.node, rowid, row))
        return delta

    # -------------------------------------------------------------- pickling

    def __reduce_ex__(self, protocol: SupportsIndex) -> Tuple[Any, ...]:
        columns = (self.ops, self.tags, self.rowids, self.refs)
        typecodes = tuple(column.typecode for column in columns)
        if int(protocol) >= 5:
            buffers = tuple(pickle.PickleBuffer(column) for column in columns)
        else:
            buffers = tuple(column.tobytes() for column in columns)
        return (
            _rebuild_block,
            (self.kind, self.node, self.name, typecodes, *buffers,
             tuple(self.keys)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaBlock):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.node == other.node
            and self.name == other.name
            and self.ops == other.ops
            and self.tags == other.tags
            and self.rowids == other.rowids
            and self.refs == other.refs
            and self.keys == other.keys
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaBlock({self.kind!r}, node={self.node}, name={self.name!r}, "
            f"entries={len(self)})"
        )

