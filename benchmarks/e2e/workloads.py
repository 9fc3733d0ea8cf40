"""Workload specs and seeded op generators for the end-to-end benchmark.

Every workload is a :class:`Spec` (fixed structure: keys, fan-out,
statement size, mix) plus an :class:`OpStream` that turns ``(spec, seed)``
into rounds of ops.  The engine only ever sees rows: all randomness lives
here, and two streams built from the same ``(spec, seed)`` yield
byte-identical rounds in any process (``random.Random`` over ints; no
hashing of strings decides anything).

An op is a plain tuple, cheap to build and to dispatch:

* ``("insert" | "delete", relation, rows)``
* ``("update", relation, [(old_row, new_row), ...])``
* ``("rollback", relation, rows)`` — insert inside a transaction, then
  ``rollback()`` (net zero; ``stream_txn_replicated`` only)
* ``("read", query, expected_row_count)``

Victims of one DELETE/UPDATE statement are **distinct** rows:
``repro.workloads.updates.UpdateStream`` may draw the same live row twice
in one UPDATE batch, which ``Cluster.update`` rejects with ``KeyError``
(``_validate_deletes`` counts multiplicities) — see README, "Known engine
issues".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.view import JoinCondition
from repro.query.query import Comparison, Filter, Query
from repro.workloads.skewed import zipf_weights
from repro.workloads.tpcr import TpcrGenerator

METHODS = ("naive", "auxiliary", "global_index")
NUM_NODES = 8

Op = tuple
Row = tuple

#: Fresh rows of the net-zero rollback transactions live far above every
#: serial the streams hand out, so they can never collide with a live row.
ROLLBACK_SERIAL_BASE = 1_000_000_000


@dataclass(frozen=True)
class Spec:
    """The fixed structure of one workload plus its sizing.

    ``round_stmts`` (write statements per method per round) and ``rounds``
    (measured rounds at the nominal run length) are the only sizing knobs;
    everything else is the workload's identity.
    """

    name: str
    why: str
    kind: str                      # stream | bulk | read_mixed | tpcr
    round_stmts: int
    rounds: int
    keys: int = 0
    fanout: int = 4
    zipf: float = 0.0              # 0 = uniform join keys
    stmt_rows: int = 4
    mix: Tuple[int, int, int] = (3, 1, 1)   # insert/delete/update per block
    preload: int = 0               # A rows loaded before the view exists
    views: int = 1
    transactional: bool = False    # each statement in cluster.transaction()
    replication: int = 0           # enable_replication(k) when > 0
    workers: Optional[int] = None
    deferred_threshold: int = 0    # defer_view(flush_threshold=...) when > 0
    tail_reads: int = 96           # pinned view reads closing every round
    tpcr_scale: float = 0.0
    setup_repeats: int = 3


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="stream_autocommit",
            why="4-row autocommit statements over 8192 uniform keys: per-statement "
                "fixed cost dominates; the control for stream_txn_replicated",
            kind="stream", round_stmts=600, rounds=8,
            keys=8192, preload=8192,
        ),
        Spec(
            name="stream_txn_replicated",
            why="the identical op stream inside cluster.transaction() with k=2 "
                "replication plus net-zero rollbacks: the per-tuple undo/replica path",
            kind="stream", round_stmts=320, rounds=8,
            keys=8192, preload=8192, transactional=True, replication=2,
        ),
        Spec(
            name="bulk_skewed",
            why="2048-row Zipf(1.2) insert statements with a 512-row delete every "
                "fourth: probe memo, send coalescing and bulk writes carry the run",
            kind="bulk", round_stmts=4, rounds=5,
            keys=4096, zipf=1.2, stmt_rows=2048,
        ),
        Spec(
            name="bulk_skewed_pool",
            why="bulk_skewed with workers=2: its rows_per_s over bulk_skewed's is "
                "the worker pool's speed-up on this box",
            kind="bulk", round_stmts=4, rounds=5,
            keys=4096, zipf=1.2, stmt_rows=2048, workers=2,
        ),
        Spec(
            name="multiview_shared",
            why="five views over one join clause, 16-row Zipf statements: the only "
                "workload where core.shared's one-pass DAG and cross-group memo run",
            kind="stream", round_stmts=100, rounds=8,
            keys=4096, zipf=1.2, stmt_rows=16, mix=(14, 3, 3), preload=4096,
            views=5,
        ),
        Spec(
            name="read_mixed_deferred",
            why="bursts of 16 writes then 48 reads on a deferred view: the refresh "
                "moves into the first read of a burst, so write and read cost trade",
            kind="read_mixed", round_stmts=128, rounds=8,
            keys=8192, preload=8192, deferred_threshold=256, tail_reads=0,
        ),
        Spec(
            name="tpcr_multiway",
            why="TPC-R scale 0.05 (382,500 rows), JV1 two-way and JV2 three-way, "
                "128-row statements: two-hop plans on a working set 10x the others",
            kind="tpcr", round_stmts=7, rounds=7,
            stmt_rows=128, tpcr_scale=0.05, setup_repeats=1,
        ),
    )
}

# ----------------------------------------------------------------- queries

_AB_JOIN = (JoinCondition("A", "c", "B", "d"),)
_CO_JOIN = (JoinCondition("customer", "custkey", "orders", "custkey"),)


def pinned_ab_read(e_value: int) -> Query:
    """A ⋈ B pinned on the view's partitioning attribute ``A.e``: a
    single-node view probe."""
    return Query(
        relations=("A", "B"),
        select=(("A", "e"), ("B", "f")),
        conditions=_AB_JOIN,
        filters=(Filter("A", "e", Comparison.EQ, e_value),),
    )


UNPINNED_AB_READ = Query(
    relations=("A", "B"), select=(("A", "e"), ("B", "f")), conditions=_AB_JOIN
)


def pinned_customer_read(custkey: int) -> Query:
    """customer ⋈ orders pinned on JV1's partitioning attribute."""
    return Query(
        relations=("customer", "orders"),
        select=(
            ("customer", "custkey"), ("orders", "orderkey"),
            ("orders", "totalprice"),
        ),
        conditions=_CO_JOIN,
        filters=(Filter("customer", "custkey", Comparison.EQ, custkey),),
    )


#: Select lists of the ``multiview_shared`` views: distinct projections of
#: one join clause, all keeping ``A.e`` (their partitioning attribute).
MULTIVIEW_SELECTS: Tuple[Optional[Tuple[Tuple[str, str], ...]], ...] = (
    (("A", "a"), ("A", "e"), ("B", "f")),
    (("A", "e"), ("B", "b")),
    (("A", "a"), ("A", "c"), ("A", "e"), ("B", "d"), ("B", "f")),
    (("A", "e"), ("B", "b"), ("B", "f")),
    None,  # every column
)

# -------------------------------------------------------------- generators


class _LiveRows:
    """The rows a stream has inserted and not yet deleted, with O(1)
    distinct-victim removal (swap with the tail)."""

    def __init__(self, rng: random.Random) -> None:
        self.rows: List[Row] = []
        self._rng = rng

    def pick_distinct(self, count: int) -> List[int]:
        return self._rng.sample(range(len(self.rows)), count)

    def remove(self, indexes: Sequence[int]) -> List[Row]:
        rows = self.rows
        victims = [rows[index] for index in indexes]
        for index in sorted(indexes, reverse=True):
            rows[index] = rows[-1]
            rows.pop()
        return victims


class OpStream:
    """Rounds of ops for one ``(spec, seed)``; see the module docstring.

    ``base_rows`` maps relation → rows to load before any view exists
    (TPC-R loads through ``repro.workloads.tpcr.load_into`` instead and
    leaves it empty).
    """

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self._rng = random.Random(seed)
        # Reads draw from their own generator, so the write stream depends
        # on (spec structure, seed) alone — not on round or burst sizes.
        self._read_rng = random.Random(seed + 0x5EED)
        self._live = _LiveRows(self._rng)
        self._kinds = self._statement_kinds()
        self._serial = 0
        self._statements = 0
        self._rollbacks = 0
        self.base_rows: Dict[str, List[Row]] = {}
        self.dataset = None
        if spec.kind == "tpcr":
            self._init_tpcr()
        else:
            self._init_ab()

    # ------------------------------------------------------------ A ⋈ B

    def _init_ab(self) -> None:
        spec = self.spec
        # Which key holds which Zipf rank is part of the workload, not of the
        # seed: the hot keys land on the same nodes in every run, so the
        # busiest node's share (resp_ios_per_stmt) varies with the draws only.
        keys = list(range(spec.keys))
        random.Random(spec.keys).shuffle(keys)
        self._keys = keys
        self._cum_weights = (
            list(itertools.accumulate(zipf_weights(spec.keys, spec.zipf)))
            if spec.zipf
            else None
        )
        self.base_rows["B"] = [
            (key * spec.fanout + match, key, key * spec.fanout + match)
            for key in range(spec.keys)
            for match in range(spec.fanout)
        ]
        self.base_rows["A"] = self._fresh_a_rows(spec.preload)
        self._live.rows.extend(self.base_rows["A"])

    def _draw_keys(self, count: int) -> List[int]:
        if self._cum_weights is None:
            return [self._rng.randrange(self.spec.keys) for _ in range(count)]
        return self._rng.choices(self._keys, cum_weights=self._cum_weights, k=count)

    def _fresh_a_rows(self, count: int) -> List[Row]:
        first = self._serial
        self._serial += count
        return [
            (first + offset, key, first + offset)
            for offset, key in enumerate(self._draw_keys(count))
        ]

    def _write_ab(self, kind: str) -> Op:
        size = self.spec.stmt_rows
        live = self._live
        if kind == "insert":
            rows = self._fresh_a_rows(size)
            live.rows.extend(rows)
            return ("insert", "A", rows)
        indexes = live.pick_distinct(size)
        if kind == "delete":
            return ("delete", "A", live.remove(indexes))
        changes = []
        for index, key in zip(indexes, self._draw_keys(size)):
            old = live.rows[index]
            new = (old[0], key, old[2])
            live.rows[index] = new
            changes.append((old, new))
        return ("update", "A", changes)

    def _statement_kinds(self) -> Iterator[str]:
        """Statement kinds in shuffled blocks holding the exact mix, so any
        run of whole blocks has the same insert/delete/update shares."""
        inserts, deletes, updates = self.spec.mix
        while True:
            block = ["insert"] * inserts + ["delete"] * deletes + ["update"] * updates
            self._rng.shuffle(block)
            yield from block

    def _stream_round(self) -> List[Op]:
        ops: List[Op] = []
        for _ in range(self.spec.round_stmts):
            ops.append(self._write_ab(next(self._kinds)))
            self._statements += 1
            if self.spec.transactional and self._statements % 16 == 0:
                ops.append(self._rollback_op())
        return ops

    def _rollback_op(self) -> Op:
        # Deterministic rows, no RNG draw: the base stream stays identical
        # to the autocommit control's.
        first = ROLLBACK_SERIAL_BASE + self._rollbacks * self.spec.stmt_rows
        self._rollbacks += 1
        rows = [
            (first + offset, (first + offset) % self.spec.keys, first + offset)
            for offset in range(self.spec.stmt_rows)
        ]
        return ("rollback", "A", rows)

    def _bulk_round(self) -> List[Op]:
        ops: List[Op] = []
        for position in range(1, self.spec.round_stmts + 1):
            if position % 4:
                ops.append(self._write_ab("insert"))
            else:
                victims = self._live.remove(self._live.pick_distinct(512))
                ops.append(("delete", "A", victims))
        return ops

    def _read_mixed_round(self) -> List[Op]:
        ops: List[Op] = []
        for _ in range(self.spec.round_stmts // 16):
            for _ in range(16):
                ops.append(self._write_ab(next(self._kinds)))
            unpinned_at = self._read_rng.randrange(48)  # 1 in 48 = 2 % of reads
            for position in range(48):
                if position == unpinned_at:
                    expected = len(self._live.rows) * self.spec.fanout
                    ops.append(("read", UNPINNED_AB_READ, expected))
                else:
                    ops.append(self._pinned_ab_read())
        return ops

    def _pinned_ab_read(self) -> Op:
        row = self._live.rows[self._read_rng.randrange(len(self._live.rows))]
        # ``e`` is unique per live row and every key has ``fanout`` matches.
        return ("read", pinned_ab_read(row[2]), self.spec.fanout)

    # ------------------------------------------------------------- TPC-R

    def _init_tpcr(self) -> None:
        # The dataset seed is fixed so the warehouse is the same across
        # --seed values; --seed drives the update stream only.
        self._tpcr = TpcrGenerator(scale=self.spec.tpcr_scale)
        self.dataset = self._tpcr.generate()
        self._live.rows.extend(self.dataset.customers)
        self._next_custkey = len(self.dataset.customers)
        self._next_orderkey = len(self.dataset.orders)
        self._next_linekey = len(self.dataset.lineitems)
        self._base_orders = len(self.dataset.orders)
        self._extra_orders: Dict[int, int] = {}   # custkey -> inserted orders
        self._open_orders: List[int] = []         # inserted, no lineitems yet

    def _tpcr_write(self, position: int) -> Op:
        size = self.spec.stmt_rows
        rng = self._rng
        slot = position % 7
        if slot < 4:
            rows = self._tpcr.new_customers(size, self._next_custkey)
            self._next_custkey += size
            self._live.rows.extend(rows)
            return ("insert", "customer", rows)
        if slot == 4:
            rows = []
            for _ in range(size):
                custkey = self._live.rows[rng.randrange(len(self._live.rows))][0]
                orderkey = self._next_orderkey
                self._next_orderkey += 1
                self._extra_orders[custkey] = self._extra_orders.get(custkey, 0) + 1
                self._open_orders.append(orderkey)
                rows.append(
                    (orderkey, custkey, round(rng.uniform(850.0, 560000.0), 2),
                     "OFP"[rng.randrange(3)])
                )
            return ("insert", "orders", rows)
        if slot == 5:
            rows = []
            for offset in range(size):
                orderkey = self._open_orders[offset % len(self._open_orders)]
                rows.append(
                    (self._next_linekey, orderkey, rng.randrange(200_000),
                     rng.randrange(10_000), round(rng.uniform(900.0, 105_000.0), 2),
                     round(rng.uniform(0.0, 0.10), 2))
                )
                self._next_linekey += 1
            self._open_orders.clear()
            return ("insert", "lineitem", rows)
        victims = self._live.remove(self._live.pick_distinct(size))
        return ("delete", "customer", victims)

    def _tpcr_round(self) -> List[Op]:
        first = self._statements
        self._statements += self.spec.round_stmts
        return [self._tpcr_write(first + step) for step in range(self.spec.round_stmts)]

    def _pinned_customer_read(self) -> Op:
        custkey = self._live.rows[self._read_rng.randrange(len(self._live.rows))][0]
        # Order i carries custkey i, so every custkey below the order count
        # has exactly one generated order; inserted orders add to that.
        expected = (custkey < self._base_orders) + self._extra_orders.get(custkey, 0)
        return ("read", pinned_customer_read(custkey), expected)

    # ------------------------------------------------------------ rounds

    def next_round(self) -> List[Op]:
        """The next round's ops: its writes, then ``tail_reads`` pinned
        view reads against the state those writes leave behind."""
        kind = self.spec.kind
        if kind == "stream":
            ops = self._stream_round()
        elif kind == "bulk":
            ops = self._bulk_round()
        elif kind == "read_mixed":
            ops = self._read_mixed_round()
        elif kind == "tpcr":
            ops = self._tpcr_round()
        else:
            raise ValueError(f"unknown workload kind {kind!r}")
        read = self._pinned_customer_read if kind == "tpcr" else self._pinned_ab_read
        ops.extend(read() for _ in range(self.spec.tail_reads))
        return ops


def smoke(spec: Spec) -> Spec:
    """The same structure at a size that finishes in a second or two."""
    if spec.kind == "tpcr":
        round_stmts = 7
    elif spec.kind == "bulk":
        round_stmts = 4
    else:
        round_stmts = max(16, spec.round_stmts // 8)
    return replace(
        spec, round_stmts=round_stmts, rounds=2,
        tpcr_scale=spec.tpcr_scale / 25, setup_repeats=1,
    )
