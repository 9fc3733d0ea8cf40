"""Update-stream generators.

The motivating workload of the paper's introduction: "a stream of updates
to these relations ... each transaction updates one base relation and each
update is localized to one data server node".  These generators produce
such streams — inserts, deletes, and updates, in configurable mixes and
batch sizes — for the throughput examples and the failure-injection tests.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..storage.schema import Row


class OpKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"


@dataclass(frozen=True)
class UpdateOp:
    """One statement of a stream: rows to insert / delete / update."""

    kind: OpKind
    relation: str
    rows: Tuple[Row, ...] = ()
    changes: Tuple[Tuple[Row, Row], ...] = ()

    def apply_to(self, cluster) -> object:
        """Execute against a :class:`repro.Cluster`; returns its snapshot."""
        if self.kind is OpKind.INSERT:
            return cluster.insert(self.relation, list(self.rows))
        if self.kind is OpKind.DELETE:
            return cluster.delete(self.relation, list(self.rows))
        return cluster.update(self.relation, list(self.changes))


class UpdateStream:
    """A reproducible mixed stream over one relation's row factory.

    ``row_factory(serial)`` must yield the serial-th fresh row.  Deletes and
    updates pick victims among rows the stream itself inserted, so a stream
    applied from an empty start is always consistent.
    """

    def __init__(
        self,
        relation: str,
        row_factory,
        batch_size: int = 1,
        mix: Tuple[float, float, float] = (1.0, 0.0, 0.0),
        seed: int = 7,
        update_row: Optional[object] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if len(mix) != 3 or abs(sum(mix) - 1.0) > 1e-9 or min(mix) < 0:
            raise ValueError("mix must be (insert, delete, update) summing to 1")
        self.relation = relation
        self.row_factory = row_factory
        self.batch_size = batch_size
        self.mix = mix
        self.seed = seed
        self.update_row = update_row or (lambda row, serial: row)

    def ops(self, count: int) -> Iterator[UpdateOp]:
        """Yield ``count`` statements."""
        rng = random.Random(self.seed)
        live: List[Row] = []
        serial = 0
        produced = 0
        while produced < count:
            kinds = [OpKind.INSERT, OpKind.DELETE, OpKind.UPDATE]
            kind = rng.choices(kinds, weights=self.mix)[0]
            if kind is not OpKind.INSERT and len(live) < self.batch_size:
                kind = OpKind.INSERT
            if kind is OpKind.INSERT:
                rows = []
                for _ in range(self.batch_size):
                    row = self.row_factory(serial)
                    serial += 1
                    rows.append(row)
                live.extend(rows)
                yield UpdateOp(OpKind.INSERT, self.relation, rows=tuple(rows))
            elif kind is OpKind.DELETE:
                victims = [
                    live.pop(rng.randrange(len(live)))
                    for _ in range(self.batch_size)
                ]
                yield UpdateOp(OpKind.DELETE, self.relation, rows=tuple(victims))
            else:
                # Distinct victims: a row drawn twice would make the second
                # change delete an image the statement has not stored yet.
                changes = []
                for index in rng.sample(range(len(live)), self.batch_size):
                    old = live[index]
                    new = self.update_row(old, serial)
                    serial += 1
                    live[index] = new
                    changes.append((old, new))
                yield UpdateOp(OpKind.UPDATE, self.relation, changes=tuple(changes))
            produced += 1


def batch_sizes_sweep(
    smallest: int = 1, largest: int = 4096, steps_per_decade: int = 3
) -> List[int]:
    """A log-spaced sweep of transaction sizes for the Figure 11 regime."""
    sizes: List[int] = []
    value = float(smallest)
    ratio = 10 ** (1.0 / steps_per_decade)
    while value <= largest:
        size = int(round(value))
        if not sizes or size > sizes[-1]:
            sizes.append(size)
        value *= ratio
    if sizes[-1] != largest:
        sizes.append(largest)
    return sizes
