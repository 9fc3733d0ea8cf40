"""Observability layer: zero overhead when off, bit-stable when on.

The acceptance bars for the tracing/metrics subsystem (``repro.obs``):

* tracing must never perturb modeled costs — ledger cells, network
  statistics, and fragment contents are byte-identical with observability
  attached or detached, on the serial and the parallel engine alike;
* traced span/event sequences are deterministic: identical statements
  produce identical :meth:`Tracer.signature` output for ``workers=1`` and
  ``workers=2``, for every method, eager and deferred;
* the disabled path allocates **no** Span objects (proved by poisoning
  ``Span.__new__``);
* exports are valid (Chrome-trace schema, Prometheus text format) and the
  metrics agree with the cost ledger cell for cell.
"""

import ast
import importlib
import json
import pkgutil
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.cluster.parallel import fork_available
from repro.cluster.probe_cache import HeavyHitterProbeCache
from repro.core.deferred import defer_view
from repro.obs import tracer as tracer_mod
from repro.obs.collect import (
    DISABLED,
    attach_observability,
    collect_cluster_metrics,
    detach_observability,
)
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import diff_snapshots, validate_prometheus

METHODS = ("naive", "auxiliary", "global_index")


def _build(method, workers=None):
    cluster = Cluster(
        num_nodes=4, batch_execution=True, workers=workers,
        probe_cache_threshold=3,
    )
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    cluster.create_join_view(
        two_way_view(
            "JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")
        ),
        method=method,
        strategy="inl",
    )
    return cluster


def _a_rows(count):
    return [(i, i % 5, f"e{i % 7}") for i in range(count)]


def _run_workload(cluster, deferred=False, rows=48, statement=8):
    wrapper = (
        defer_view(cluster, "JV", flush_threshold=None) if deferred else None
    )
    data = _a_rows(rows)
    for start in range(0, rows, statement):
        cluster.insert("A", data[start : start + statement])
    cluster.delete("A", data[:statement])
    if wrapper is not None:
        wrapper.refresh()


def _engine_state(cluster):
    stats = cluster.network.stats
    return (
        dict(cluster.ledger._cells),
        (
            stats.messages, stats.local_deliveries, dict(stats.by_link),
            stats.drops, stats.duplicates, stats.retries, stats.backoff_slots,
        ),
        {
            name: {
                node.node_id: node.scan(name)
                for node in cluster.nodes
                if node.has_fragment(name)
            }
            for name in ("A", "B", "JV")
        },
    )


# ------------------------------------------------- tracing never perturbs


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("deferred", [False, True])
def test_tracing_is_cost_invisible(workers, deferred):
    """Ledger cells, network stats, and fragment contents are bit-identical
    with observability attached vs the disabled default."""
    if workers is not None and not fork_available():
        pytest.skip("fork start method unavailable")
    plain = _build("auxiliary", workers=workers)
    _run_workload(plain, deferred=deferred)
    state_plain = _engine_state(plain)
    plain.close()

    traced = _build("auxiliary", workers=workers)
    obs = attach_observability(traced)
    _run_workload(traced, deferred=deferred)
    state_traced = _engine_state(traced)
    traced.close()

    assert obs.tracer.span_count() > 0
    assert state_traced == state_plain
    detach_observability(traced)
    assert traced.obs is DISABLED


# -------------------------------------------------- signature determinism


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("deferred", [False, True])
def test_signatures_identical_across_worker_counts(method, deferred):
    """workers=1 (inline shard) and workers=2 (forked pool) must yield the
    exact same span/event signature — worker count is an execution detail,
    not an observable one."""

    def run(workers):
        cluster = _build(method, workers=workers)
        obs = attach_observability(cluster)
        _run_workload(cluster, deferred=deferred)
        signature = obs.tracer.signature()
        state = _engine_state(cluster)
        cluster.close()
        return signature, state

    sig_one, state_one = run(1)
    sig_two, state_two = run(2)
    assert sig_one == sig_two
    assert state_one == state_two


def test_signature_is_stable_across_reruns():
    first = _build("global_index")
    obs_first = attach_observability(first)
    _run_workload(first)
    second = _build("global_index")
    obs_second = attach_observability(second)
    _run_workload(second)
    assert obs_first.tracer.signature() == obs_second.tracer.signature()


# --------------------------------------------------- disabled-mode zeroes


@contextmanager
def _counted_span_allocations():
    """Count every Span allocation by hooking ``Span.__new__``.

    Cleanup installs a *transparent* ``__new__`` instead of deleting the
    hook: once a class's ``tp_new`` slot has been overridden, neither
    ``del`` nor re-assigning ``object.__new__`` restores the original
    C-level fast path (CPython then raises ``object.__new__() takes
    exactly one argument``), so a pass-through wrapper is the only clean
    restore.
    """
    allocations = []

    def counting_new(cls, *args, **kwargs):
        allocations.append(args)
        return object.__new__(cls)

    def passthrough_new(cls, *args, **kwargs):
        return object.__new__(cls)

    tracer_mod.Span.__new__ = counting_new
    try:
        yield allocations
    finally:
        tracer_mod.Span.__new__ = passthrough_new


def test_disabled_mode_allocates_no_span_objects():
    """With the DISABLED facade (the default), no Span is ever constructed:
    every instrumentation site goes through NOOP_TRACER/NOOP_SPAN."""
    with _counted_span_allocations() as allocations:
        cluster = _build("auxiliary")
        assert cluster.obs is DISABLED
        _run_workload(cluster)
        assert cluster.obs.metrics.names() == []
        assert allocations == []


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_disabled_mode_allocates_no_span_objects_parallel():
    with _counted_span_allocations() as allocations:
        cluster = _build("auxiliary", workers=2)
        _run_workload(cluster)
        cluster.close()
        assert allocations == []


def test_span_allocation_counter_still_counts():
    """The hook itself works: an enabled tracer allocates spans."""
    with _counted_span_allocations() as allocations:
        from repro.obs.tracer import Tracer

        with Tracer().span("probe"):
            pass
        assert len(allocations) == 1


# ------------------------------------------------------- worker telemetry


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_traced_superstep_spans_carry_merged_worker_events():
    cluster = _build("auxiliary", workers=2)
    obs = attach_observability(cluster)
    _run_workload(cluster)
    supersteps = [
        span for _depth, span in obs.tracer.walk() if span.name == "superstep"
    ]
    assert supersteps, "parallel run produced no superstep spans"
    merged = [span for span in supersteps if span.events]
    assert merged, "no superstep carried worker event tallies"
    for span in merged:
        # Events arrive pre-sorted by (node, kind, detail).
        keys = [
            (tags["node"], tags["kind"], tags["detail"])
            for _seq, _name, tags in span.events
        ]
        assert keys == sorted(keys)
    counter = obs.metrics.get("repro_worker_events_total")
    assert counter is not None and counter.total() > 0
    engine = cluster._parallel_engine
    assert engine is not None
    live_stats = engine.probe_cache_stats()
    assert len(live_stats) == 2
    assert any(busy > 0 for busy in engine.worker_busy_ns)
    cluster.close()
    # Final snapshots survive the drain for post-run collection.
    assert engine.probe_cache_stats() == live_stats


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_untraced_parallel_run_still_tracks_busy_time():
    cluster = _build("auxiliary", workers=2)
    _run_workload(cluster)
    engine = cluster._parallel_engine
    assert engine is not None
    assert sum(engine.worker_busy_ns) > 0
    cluster.close()


# ------------------------------------------------------------ exports


def test_exports_are_valid_and_agree_with_ledger():
    cluster = _build("global_index")
    obs = attach_observability(cluster)
    _run_workload(cluster)
    registry = collect_cluster_metrics(cluster)
    assert registry is obs.metrics  # pushed + pulled metrics export together

    trace = to_chrome_trace(obs.tracer)
    assert validate_chrome_trace(trace) == []
    json.dumps(trace)  # must be JSON-serializable as-is

    text = registry.to_prometheus()
    assert validate_prometheus(text) == []

    # The ledger gauge mirrors the cost ledger cell for cell.
    ops = registry.get("repro_ledger_ops_total")
    cells = cluster.ledger._cells
    assert len(ops.samples()) == len(cells)
    for (node, op, tag), count in cells.items():
        assert ops.get(node=node, op=op.value, tag=tag.value) == count
    snapshot = cluster.ledger.snapshot()
    tw = registry.get("repro_workload_total_ios")
    rt = registry.get("repro_response_time_ios")
    tags = {tag for (_n, _o, tag) in cells}
    for tag in tags:
        assert tw.get(tag=tag.value) == snapshot.total_workload(tags=[tag])
        assert rt.get(tag=tag.value) == snapshot.response_time(tags=[tag])
    # Network gauge agrees with the network's own counters.
    net = registry.get("repro_network_events_total")
    assert net.get(kind="messages") == cluster.network.stats.messages


def test_metrics_snapshot_diff():
    cluster = _build("auxiliary")
    attach_observability(cluster)
    _run_workload(cluster, rows=16, statement=8)
    before = collect_cluster_metrics(cluster).snapshot()
    assert diff_snapshots(before, before) == {}
    cluster.insert("A", _a_rows(8))
    after = collect_cluster_metrics(cluster).snapshot()
    delta = diff_snapshots(before, after)
    assert "repro_ledger_ops_total" in delta


# --------------------------------------------------------------- the CLI


def test_obs_cli_snapshot_diff_render(tmp_path, capsys):
    from repro.obs.__main__ import main

    out = tmp_path / "artifacts"
    assert main(["snapshot", "--smoke", "--out", str(out)]) == 0
    for artifact in ("trace.json", "metrics.prom", "metrics.json"):
        assert (out / artifact).exists()
    trace = json.loads((out / "trace.json").read_text())
    assert validate_chrome_trace(trace) == []
    assert validate_prometheus((out / "metrics.prom").read_text()) == []
    assert main(
        ["diff", str(out / "metrics.json"), str(out / "metrics.json")]
    ) == 0
    assert main(["render", str(out / "trace.json")]) == 0
    assert "statement" in capsys.readouterr().out


# ------------------------------------------------- probe-cache epoch flush


def test_probe_cache_epoch_flush_preserves_counters():
    """A catalog-epoch clear folds the live hit/miss/invalidation counters
    into the flushed accumulators instead of losing them; ``stats()``
    reports all-time totals either way."""
    cache = HeavyHitterProbeCache(threshold=1)
    cache.check_epoch(1)
    cache.note_index_miss(0, "A", "c", 5, 1, [(0, 5)])
    assert cache.lookup_index(0, "A", "c", 5) is not None  # one hit
    cache.note_write(0, "A", (0, 5))                        # one invalidation
    before = cache.stats()
    assert (before["hits"], before["misses"], before["invalidations"]) == (
        1, 1, 1,
    )
    cache.check_epoch(2)  # DDL bump: clears entries, flushes counters
    assert cache.lookup_index(0, "A", "c", 5) is None
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["invalidations"]) == (
        1, 1, 1,
    )
    assert stats["flushed_hits"] == 1
    assert stats["flushed_misses"] == 1
    assert stats["flushed_invalidations"] == 1
    assert stats["epoch_flushes"] == 1
    assert stats["resident_index_keys"] == 0
    # Same epoch again: no double flush.
    cache.check_epoch(2)
    assert cache.stats()["epoch_flushes"] == 1


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
def test_ddl_epoch_bump_keeps_worker_cache_history():
    """Worker probe-cache counters accumulated before a DDL statement stay
    visible in stats replies after the epoch clear."""
    cluster = _build("auxiliary", workers=2)
    _run_workload(cluster, rows=32)
    engine = cluster._parallel_engine
    assert engine is not None
    before = engine.probe_cache_stats()
    total_before = sum(s.get("hits", 0) + s.get("misses", 0) for s in before)
    assert total_before > 0
    # DDL drains the pool; the next statement re-forks with a new epoch.
    cluster.create_relation(Schema.of("C", "g", "h"), partitioned_on="g")
    cluster.insert("A", _a_rows(8))
    after = engine.probe_cache_stats()
    total_after = sum(s.get("hits", 0) + s.get("misses", 0) for s in after)
    assert total_after > 0
    cluster.close()


# ------------------------------------------------------- public surface


def _packages_with_all():
    import repro

    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [n for n in names if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("package", _packages_with_all())
def test_every_exported_name_resolves(package):
    """A pruned module must not leave its names behind in ``__all__``."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing {missing}"


E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _e2e_imports():
    """Every ``(module, name)`` the end-to-end benchmark imports from
    ``repro`` (``name`` is None for a plain ``import repro...``)."""
    found = []
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "repro":
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "repro"
                ]
    return found


def test_benchmark_imports_resolve():
    """A ``src/`` deletion must not break what the benchmark imports: the
    benchmark itself is outside the tier-1 suite."""
    imports = _e2e_imports()
    assert imports, f"no repro imports found under {E2E}"
    unresolved = []
    for filename, module_name, name in imports:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            unresolved.append(f"{filename}: {module_name}")
            continue
        if name is not None and not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                unresolved.append(f"{filename}: {module_name}.{name}")
    assert not unresolved, f"benchmark imports that do not resolve: {unresolved}"
