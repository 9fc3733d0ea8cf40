"""Horizontal partitioning of relations across data-server nodes.

Everything the paper studies hinges on *where* a tuple lives: a relation
hash-partitioned on its join attribute needs no auxiliary structures, while
one partitioned on anything else forces the all-node naive maintenance this
paper sets out to avoid.

Hashing must be deterministic across processes (Python's ``hash`` of str is
salted per process), so keys are hashed with CRC-32 over their repr; small
non-negative integers map to themselves, which both spreads sequential keys
evenly and reproduces the paper's exact ``ceil(A/L)`` step-wise behaviour
for uniformly distributed keys.
"""

from __future__ import annotations

import bisect
import hashlib
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..storage.schema import Row, Schema


def stable_hash(value: object) -> int:
    """A process-stable non-negative hash of a partitioning key."""
    if isinstance(value, bool):  # bool is an int subclass; keep distinct
        return int(value)
    if isinstance(value, int) and value >= 0:
        return value
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class HashPartitioning:
    """Declarative spec: hash-partition on ``column``."""

    column: str

    def bind(self, schema: Schema, num_nodes: int) -> "BoundPartitioner":
        return BoundPartitioner(self, schema, num_nodes)

    def describe(self) -> str:
        return f"hash({self.column})"


@dataclass(frozen=True)
class RoundRobinPartitioning:
    """Declarative spec: spread rows round-robin (no placement attribute).

    Used for views "not partitioned on an attribute of A" (the (b) variants
    of the paper's figures): result tuples are distributed across nodes with
    no locality the maintainer could exploit.
    """

    def bind(self, schema: Schema, num_nodes: int) -> "BoundRoundRobin":
        return BoundRoundRobin(schema, num_nodes)

    def describe(self) -> str:
        return "round-robin"


@dataclass(frozen=True)
class ConsistentHashPartitioning:
    """Declarative spec: place rows on a consistent-hash ring over ``column``.

    Unlike modulo hashing — where growing L to L+1 remaps nearly every key —
    a ring with ``vnodes`` virtual points per node relocates only ~1/(L+1) of
    the keys on a node join, which is what makes online elasticity affordable
    (the minimal-movement invariant tested in ``tests/test_partitioning.py``).
    Ring points are derived from stable per-node *tokens*, not node ids, so
    the dense-id renumbering a node departure triggers does not move any
    surviving node's ring position.
    """

    column: str
    vnodes: int = 64

    def bind(
        self,
        schema: Schema,
        num_nodes: int,
        tokens: Optional[Sequence[int]] = None,
    ) -> "BoundConsistentHash":
        if tokens is None:
            tokens = list(range(num_nodes))
        return BoundConsistentHash(self, schema, list(tokens))

    def describe(self) -> str:
        return f"consistent({self.column})"


PartitioningSpec = (
    HashPartitioning | RoundRobinPartitioning | ConsistentHashPartitioning
)


def _ring_point(data: str) -> int:
    """A process-stable, well-mixed position on the 64-bit ring."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class BoundPartitioner:
    """A hash partitioning bound to a concrete schema and node count."""

    def __init__(self, spec: HashPartitioning, schema: Schema, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.spec = spec
        self.schema = schema
        self.num_nodes = num_nodes
        self.column = spec.column
        self._position = schema.index_of(spec.column)

    @property
    def is_hash(self) -> bool:
        return True

    def node_of_key(self, key: object) -> int:
        return stable_hash(key) % self.num_nodes

    def node_of_row(self, row: Row) -> int:
        return self.node_of_key(row[self._position])

    def key_of_row(self, row: Row) -> object:
        return row[self._position]

    def split(self, rows: Iterable[Row]) -> Dict[int, List[Row]]:
        """Group rows by destination node."""
        by_node: Dict[int, List[Row]] = {}
        for row in rows:
            by_node.setdefault(self.node_of_row(row), []).append(row)
        return by_node

    def rebind(self, num_nodes: int, tokens: Optional[Sequence[int]] = None) -> "BoundPartitioner":
        """A fresh binding against a changed node count (modulo remap)."""
        return BoundPartitioner(self.spec, self.schema, num_nodes)


class BoundConsistentHash:
    """A consistent-hash ring bound to a schema and a set of node tokens.

    ``tokens[i]`` is the stable identity of node id ``i``; each token owns
    ``spec.vnodes`` points on a 64-bit ring.  A key is placed on the first
    ring point at or after its hash (wrapping), and the point's token
    resolves to the *current* node id — so renumbering node ids only
    updates the token list, never the ring geometry.  Points and
    key positions use blake2b (CRC-32 of near-identical short strings
    clusters badly, which would defeat the vnode spreading).
    """

    def __init__(
        self,
        spec: ConsistentHashPartitioning,
        schema: Schema,
        tokens: Sequence[int],
    ) -> None:
        if len(tokens) < 1:
            raise ValueError("a cluster needs at least one node")
        if len(set(tokens)) != len(tokens):
            raise ValueError("node tokens must be unique")
        self.spec = spec
        self.schema = schema
        self.tokens = list(tokens)
        self.num_nodes = len(self.tokens)
        self.column = spec.column
        self._position = schema.index_of(spec.column)
        self._node_of_token = {t: i for i, t in enumerate(self.tokens)}
        points: List[Tuple[int, int]] = []
        for token in self.tokens:
            for v in range(max(1, spec.vnodes)):
                points.append((_ring_point(f"vnode:{token}:{v}"), token))
        # Ties (hash collisions across tokens) break by token for determinism.
        points.sort()
        self._points = [p for p, _t in points]
        self._owners = [t for _p, t in points]

    @property
    def is_hash(self) -> bool:
        return True

    def token_of_key(self, key: object) -> int:
        # stable_hash maps small ints to themselves (the paper's modulo
        # behaviour needs that), which would pile sequential keys onto one
        # arc of the ring — scramble it onto the full circle first.
        point = _ring_point(f"key:{stable_hash(key)}")
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def node_of_key(self, key: object) -> int:
        return self._node_of_token[self.token_of_key(key)]

    def node_of_row(self, row: Row) -> int:
        return self.node_of_key(row[self._position])

    def key_of_row(self, row: Row) -> object:
        return row[self._position]

    def split(self, rows: Iterable[Row]) -> Dict[int, List[Row]]:
        """Group rows by destination node."""
        by_node: Dict[int, List[Row]] = {}
        for row in rows:
            by_node.setdefault(self.node_of_row(row), []).append(row)
        return by_node

    def rebind(
        self,
        num_nodes: int,
        tokens: Optional[Sequence[int]] = None,
    ) -> "BoundConsistentHash":
        """A fresh ring for a changed membership (minimal-movement remap)."""
        if tokens is None:
            tokens = list(range(num_nodes))
        if len(tokens) != num_nodes:
            raise ValueError("token list must match the node count")
        return BoundConsistentHash(self.spec, self.schema, list(tokens))


class BoundRoundRobin:
    """Round-robin placement bound to a node count; stateful cursor."""

    def __init__(self, schema: Schema, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.schema = schema
        self.num_nodes = num_nodes
        self._cursor = 0

    @property
    def is_hash(self) -> bool:
        return False

    @property
    def column(self) -> None:
        return None

    def node_of_row(self, row: Row) -> int:
        node = self._cursor
        self._cursor = (self._cursor + 1) % self.num_nodes
        return node

    def split(self, rows: Iterable[Row]) -> Dict[int, List[Row]]:
        by_node: Dict[int, List[Row]] = {}
        for row in rows:
            by_node.setdefault(self.node_of_row(row), []).append(row)
        return by_node

    def rebind(self, num_nodes: int, tokens: Optional[Sequence[int]] = None) -> "BoundRoundRobin":
        """Shrink/grow the cycle in place; the cursor survives, clamped."""
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self._cursor %= num_nodes
        return self


def spread_evenly(keys: Sequence[object], num_nodes: int) -> Dict[int, int]:
    """Histogram of nodes hit by ``keys`` under hash placement (test helper)."""
    histogram: Dict[int, int] = {}
    for key in keys:
        node = stable_hash(key) % num_nodes
        histogram[node] = histogram.get(node, 0) + 1
    return histogram
