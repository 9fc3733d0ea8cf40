"""Load driver (repro.obs.load).

The acceptance-critical pin lives here: measurement must be charge-neutral.
Running the identical seeded schedule with wall-clock measurement on
(observability attached, histogram + time-series collection live) versus
off must leave ledger cells, network statistics, and fragment contents
bit-identical for every method × eager/deferred × worker count.
"""

import pytest

from repro.core.deferred import defer_view
from repro.costs.ledger import format_cell_diff
from repro.obs.collect import attach_observability
from repro.obs.load import build_schedule, execute_schedule
from repro.obs.timeseries import TimeSeriesCollector
from repro.workloads.skewed import SkewedJoinWorkload, build_skewed_cluster
from tests.conftest import fragment_contents, network_state

METHODS = ("naive", "auxiliary", "global_index")
MODES = ("eager", "deferred")
WORKER_COUNTS = (1, 2)
SEED = 412


def _workload():
    return SkewedJoinWorkload(num_keys=12, fanout=2, skew=1.2, seed=SEED)


def _schedule(deferred: bool):
    return build_schedule(
        _workload(),
        total_ops=18,
        statement_size=4,
        read_fraction=0.3,
        seed=SEED,
        deferred=deferred,
    )


def _build(method: str, workers: int):
    cluster = build_skewed_cluster(
        _workload(), num_nodes=4, method=method, strategy="inl"
    )
    if workers:
        cluster.workers = workers
    return cluster


def _run(method: str, mode: str, workers: int, measure: bool):
    cluster = _build(method, workers)
    wrapper = None
    if mode == "deferred":
        wrapper = defer_view(cluster, "JV", flush_threshold=8)
    if measure:
        obs = attach_observability(cluster)
        collector = TimeSeriesCollector(lambda: obs.metrics)
        registry = obs.metrics
    else:
        collector = registry = None
    try:
        timings = execute_schedule(
            cluster,
            _schedule(mode == "deferred"),
            refresh=wrapper.refresh if wrapper is not None else None,
            measure=measure,
            registry=registry,
            collector=collector,
            cadence=4,
            method=method,
        )
        state = _cluster_state(cluster)
    finally:
        cluster.close()
    return cluster, timings, state


def _cluster_state(cluster):
    return {
        "network": network_state(cluster),
        "fragments": {
            name: fragment_contents(cluster, name) for name in ("A", "B", "JV")
        },
    }


# --------------------------------------------------------------- schedule


def test_schedule_is_deterministic_in_seed():
    first = _schedule(deferred=False)
    second = _schedule(deferred=False)
    assert first == second
    different = build_schedule(
        _workload(), total_ops=18, statement_size=4,
        read_fraction=0.3, seed=SEED + 1,
    )
    assert different != first


def test_schedule_mixes_updates_and_reads():
    schedule = _schedule(deferred=False)
    kinds = {op.kind for op in schedule}
    assert kinds == {"update", "read"}
    assert all(op.rows for op in schedule if op.kind == "update")
    assert all(op.query is not None for op in schedule if op.kind == "read")


def test_deferred_schedule_appends_refresh():
    schedule = _schedule(deferred=True)
    assert schedule[-1].kind == "refresh"
    assert sum(1 for op in schedule if op.kind == "refresh") == 1


def test_refresh_without_hook_rejected():
    cluster = _build("auxiliary", workers=0)
    try:
        with pytest.raises(ValueError):
            execute_schedule(cluster, _schedule(deferred=True), refresh=None)
    finally:
        cluster.close()


# ----------------------------------------------- bit-identity acceptance


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_measurement_is_charge_neutral(method, mode, workers):
    """Ledger cells, network stats, and fragment contents are identical
    with measurement on or off — the driver wraps calls, never steers."""
    measured_cluster, measured_timings, measured_state = _run(
        method, mode, workers, measure=True
    )
    control_cluster, control_timings, control_state = _run(
        method, mode, workers, measure=False
    )
    cell_diff = measured_cluster.ledger.diff(control_cluster.ledger)
    assert not cell_diff, (
        "measured vs unmeasured ledger cells diverge "
        f"(measured - control):\n{format_cell_diff(cell_diff)}"
    )
    assert measured_state == control_state
    assert [t.kind for t in measured_timings] == [
        t.kind for t in control_timings
    ]
    assert all(t.seconds > 0 for t in measured_timings)
    assert all(t.seconds == 0.0 for t in control_timings)


def test_measured_run_populates_observability():
    cluster = _build("auxiliary", workers=0)
    wrapper = defer_view(cluster, "JV", flush_threshold=8)
    obs = attach_observability(cluster)
    collector = TimeSeriesCollector(lambda: obs.metrics)
    try:
        execute_schedule(
            cluster,
            _schedule(deferred=True),
            refresh=wrapper.refresh,
            registry=obs.metrics,
            collector=collector,
            cadence=4,
        )
        histogram = obs.metrics.get("repro_stmt_latency_seconds")
        assert histogram is not None
        # The driver labels ops by kind; the engine hook points observe the
        # same histogram under their own kinds via the span timestamps.
        assert histogram.count(kind="update") > 0
        assert histogram.count(kind="read") > 0
        assert histogram.count(kind="statement", relation="A") > 0
        assert histogram.count(kind="deferred_refresh", view="JV") > 0
        ops = obs.metrics.get("repro_load_ops_total")
        assert ops.get(kind="update") + ops.get(kind="read") + ops.get(
            kind="refresh"
        ) == len(_schedule(deferred=True))
        # Query roots exist in the tracer (the read path now runs inside
        # "query" spans), and sampling happened on the op-count cadence.
        assert any(root.name == "query" for root in obs.tracer.roots)
        assert len(collector) >= 2
    finally:
        cluster.close()


def test_query_latency_kinds_cover_plans():
    """Both read plans — base join and view probe/scan — observe latency."""
    cluster = _build("auxiliary", workers=0)
    obs = attach_observability(cluster)
    try:
        execute_schedule(
            cluster,
            _schedule(deferred=False),
            registry=obs.metrics,
        )
        histogram = obs.metrics.get("repro_stmt_latency_seconds")
        plans = {
            dict(key).get("plan")
            for key in histogram._totals
            if dict(key).get("kind") == "query"
        }
        assert plans & {"base_join", "view_probe", "view_scan"}
    finally:
        cluster.close()

