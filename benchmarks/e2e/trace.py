"""Outside-in tracer: spans around the engine's entry points, from here.

The benchmark owns its tracing.  :meth:`Tracer.install` replaces a fixed
table of callables on the engine's classes (:data:`SPAN_POINTS`,
:data:`COUNT_POINTS`) with wrappers and :meth:`Tracer.uninstall` puts the
originals back, so nothing under ``src/`` changes and an untraced round
runs the engine exactly as shipped.

* A **span point** records ``(layer, name, start, end, parent, statement)``
  per call.  A layer's self time is its spans' durations minus the part
  their child spans cover.
* A **count point** is a leaf called ten or more times per delta row
  (``CostLedger.charge``, ``Network.send*``, partitioner routing,
  ``UndoLog.record``).  Timing each call would cost more than the call, so
  it is only counted — per enclosing layer — and priced afterwards with
  the standalone unit cost from :mod:`probes`: the leaf's layer is credited
  ``count x unit`` and the enclosing layers are debited the same amount.

Spans stay in memory (a list of tuples) until :meth:`Tracer.write_chrome`.
Wrappers never touch a ledger, so traced and untraced runs charge
bit-identical cells (pinned in ``test_harness.py``).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.shared as shared_module
from repro.cluster.cluster import Cluster
from repro.cluster.membership import Replicator
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.parallel import ParallelEngine
from repro.cluster.partitioning import BoundPartitioner
from repro.cluster.transactions import Transaction
from repro.core.deferred import DeferredMaintainer
from repro.core.maintenance import JoinViewMaintainer
from repro.core.optimizer import MaintenancePlanner
from repro.costs.ledger import CostLedger
from repro.faults.undo import UndoLog
from repro.query.engine import QueryEngine

_clock = time.perf_counter_ns

#: layer -> (owner, attribute names) wrapped as timed spans.
#: ``JoinViewMaintainer._compute_join`` / ``_consume_join`` are the two
#: halves ``core.shared.maintain_views`` calls directly on a group's
#: representative; without them the shared path's join work would be
#: booked to ``core.shared``.
SPAN_POINTS: Dict[str, Tuple[Tuple[object, Tuple[str, ...]], ...]] = {
    "cluster.stmt": ((Cluster, ("insert", "delete", "update")),),
    "cluster.transactions": (
        (Transaction,
         ("__enter__", "__exit__", "rollback", "insert", "delete", "update")),
    ),
    "faults.undo": ((UndoLog, ("rollback", "merge_into", "discard")),),
    "cluster.membership.replica": ((Replicator, ("on_write", "sync")),),
    "cluster.node.write": (
        (Node, ("insert", "insert_many", "delete_matching", "delete_by_rowid",
                "gi_insert", "gi_delete", "replica_apply")),
    ),
    "cluster.node.probe": (
        (Node, ("index_probe", "gi_probe", "fetch_by_rowids", "scan",
                "charge_index_probe", "charge_gi_probe", "charge_fetch")),
    ),
    "core.maintenance": (
        (JoinViewMaintainer, ("apply", "_compute_join", "_consume_join")),
    ),
    "core.optimizer": ((MaintenancePlanner, ("compiled_for",)),),
    "cluster.view_write": ((Cluster, ("apply_view_delta",)),),
    "core.shared": ((shared_module, ("maintain_views",)),),
    "core.deferred": ((DeferredMaintainer, ("apply", "refresh", "flush_if_stale")),),
    "query.engine": ((QueryEngine, ("answer",)),),
    "cluster.parallel.run_ops": ((ParallelEngine, ("run_ops",)),),
    "costs.ledger": ((CostLedger, ("snapshot", "diff_since")),),
}

#: layer -> (unit-cost key in ``probes``, (owner, attribute names)) counted.
COUNT_POINTS: Dict[str, Tuple[str, Tuple[Tuple[object, Tuple[str, ...]], ...]]] = {
    "costs.ledger": ("costs.ledger.charge_ns", ((CostLedger, ("charge",)),)),
    "cluster.network": (
        "cluster.network.send_many_ns",
        ((Network, ("send", "send_many", "broadcast", "broadcast_many")),),
    ),
    "cluster.partitioning": (
        "cluster.partitioning.route_ns",
        ((BoundPartitioner, ("node_of_row", "node_of_key")),),
    ),
    "faults.undo": ("faults.undo.record_ns", ((UndoLog, ("record",)),)),
}

#: Memo repeats: these charge ``times`` probes without executing one.
_MEMO_CHARGES = ("charge_index_probe", "charge_gi_probe")
_EXECUTED_PROBES = ("index_probe", "gi_probe")

Span = Tuple[int, str, int, int, int, int]  # layer id, name, start, end, parent, stmt


class Tracer:
    """Wrap the entry points, collect spans and counts, report per layer."""

    def __init__(self, unit_ns: Dict[str, float]) -> None:
        self.unit_ns = unit_ns
        self.layers: List[str] = sorted(set(SPAN_POINTS) | set(COUNT_POINTS))
        self._layer_id = {layer: index for index, layer in enumerate(self.layers)}
        self.spans: List[Optional[Span]] = []
        self.statement = -1
        #: open span indexes / their layer ids, innermost last; the root
        #: sentinel makes "no open span" a valid enclosing layer slot.
        self._stack: List[int] = [-1]
        self._layer_stack: List[int] = [len(self.layers)]
        #: counts[leaf layer id][enclosing layer id] -> calls
        self.counts: List[List[int]] = [
            [0] * (len(self.layers) + 1) for _ in self.layers
        ]
        self.calls: Dict[str, int] = {}
        self.probes_executed = 0
        self.probes_memoized = 0
        self._originals: List[Tuple[object, str, Callable]] = []

    # ------------------------------------------------------------ wrapping

    def _span_wrapper(self, layer: str, name: str, original: Callable) -> Callable:
        layer_id = self._layer_id[layer]
        spans, stack, layer_stack = self.spans, self._stack, self._layer_stack
        calls = self.calls
        calls.setdefault(name, 0)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            layer_stack.append(layer_id)
            calls[name] += 1
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                layer_stack.pop()
                spans[index] = (layer_id, name, start, end, parent, tracer.statement)

        return traced

    def _count_wrapper(self, layer: str, name: str, original: Callable) -> Callable:
        row = self.counts[self._layer_id[layer]]
        layer_stack = self._layer_stack

        @functools.wraps(original)
        def counted(*args, **kwargs):
            row[layer_stack[-1]] += 1
            return original(*args, **kwargs)

        return counted

    def _memo_wrapper(self, inner: Callable) -> Callable:
        tracer = self

        @functools.wraps(inner)
        def memo_charged(*args, **kwargs):
            tracer.probes_memoized += kwargs.get("times", 1)
            return inner(*args, **kwargs)

        return memo_charged

    def _executed_wrapper(self, inner: Callable) -> Callable:
        tracer = self

        @functools.wraps(inner)
        def executed(*args, **kwargs):
            tracer.probes_executed += 1
            return inner(*args, **kwargs)

        return executed

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for layer, (_, owners) in COUNT_POINTS.items():
            for owner, names in owners:
                for name in names:
                    self._replace(owner, name, self._count_wrapper(
                        layer, name, vars(owner)[name]
                    ))
        for layer, owners in SPAN_POINTS.items():
            for owner, names in owners:
                for name in names:
                    label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
                    wrapper = self._span_wrapper(layer, label, vars(owner)[name])
                    if name in _MEMO_CHARGES:
                        wrapper = self._memo_wrapper(wrapper)
                    elif name in _EXECUTED_PROBES:
                        wrapper = self._executed_wrapper(wrapper)
                    self._replace(owner, name, wrapper)

    def _replace(self, owner: object, name: str, wrapper: Callable) -> None:
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    # ------------------------------------------------------------- reports

    def leaf_calls(self, layer: str) -> int:
        return sum(self.counts[self._layer_id[layer]])

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self seconds per layer: span self time, minus the priced leaf
        calls made under the layer, plus the layer's own priced leaves."""
        covered = [0] * len(self.spans)
        self_ns = [0.0] * len(self.layers)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        for index, span in enumerate(self.spans):
            if span is not None:
                self_ns[span[0]] += span[3] - span[2] - covered[index]
        for layer, (unit_key, _) in COUNT_POINTS.items():
            leaf = self._layer_id[layer]
            unit = self.unit_ns[unit_key]
            for enclosing, calls in enumerate(self.counts[leaf]):
                priced = calls * unit
                self_ns[leaf] += priced
                if enclosing < len(self.layers):
                    self_ns[enclosing] -= priced
        return {
            layer: max(0.0, self_ns[index]) / 1e9
            for index, layer in enumerate(self.layers)
        }

    def write_chrome(self, path: str) -> None:
        """Dump every span as a Chrome-trace (``chrome://tracing``) file."""
        origin = min((span[2] for span in self.spans if span is not None), default=0)
        events = [
            {
                "name": span[1], "cat": self.layers[span[0]], "ph": "X",
                "ts": (span[2] - origin) / 1e3, "dur": (span[3] - span[2]) / 1e3,
                "pid": 0, "tid": 0,
                "args": {"statement": span[5], "parent": span[4]},
            }
            for span in self.spans
            if span is not None
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
