"""Tests for the experiment harness: each paper experiment runs and its
headline claims hold; model and measured series agree where both exist."""

import pytest

from repro.backends.sqlite_maintenance import TeradataStyleExperiment
from repro.bench import agreement_ratio, experiments
from repro.bench.harness import ExperimentResult, render_results
from repro.model import MethodVariant

AR = MethodVariant.AUXILIARY.value
NAIVE_CL = MethodVariant.NAIVE_CLUSTERED.value
NAIVE_NCL = MethodVariant.NAIVE_NONCLUSTERED.value


def test_agreement_ratio():
    assert agreement_ratio([1.0, 2.0], [1.0, 2.0]) == 1.0
    assert agreement_ratio([1.0], [2.0]) == 2.0
    assert agreement_ratio([2.0], [1.0]) == 2.0
    assert agreement_ratio([0.0], [0.0]) == 1.0
    assert agreement_ratio([0.0], [1.0]) == float("inf")
    with pytest.raises(ValueError):
        agreement_ratio([1.0], [1.0, 2.0])


def test_experiment_result_helpers():
    result = ExperimentResult(
        "Figure X", "t", ["a", "b"], [[1, 2.0]], notes=["n"]
    )
    assert result.column("b") == [2.0]
    assert result.as_dicts() == [{"a": 1, "b": 2.0}]
    rendered = result.render()
    assert "Figure X" in rendered and "note: n" in rendered
    assert "Figure X" in render_results([result])


def test_figure7_model_equals_measured():
    result = experiments.figure7(node_counts=(1, 2, 4, 8))
    for variant in MethodVariant:
        model = result.column(f"{variant.value} [model]")
        measured = result.column(f"{variant.value} [measured]")
        assert agreement_ratio(model, measured) == pytest.approx(1.0)


def test_figure8_model_equals_measured():
    result = experiments.figure8(fanouts=(1, 5, 20), num_nodes=8)
    for variant in MethodVariant:
        model = result.column(f"{variant.value} [model]")
        measured = result.column(f"{variant.value} [measured]")
        assert agreement_ratio(model, measured) == pytest.approx(1.0)


def test_figure9_agreement_and_shape():
    result = experiments.figure9(node_counts=(2, 8, 32), num_inserted=128)
    ar_measured = result.column(f"{AR} [measured]")
    ar_model = result.column(f"{AR} [model]")
    assert agreement_ratio(ar_model, ar_measured) == pytest.approx(1.0)
    # naive clustered flat at A, AR decreasing.
    assert result.column(f"{NAIVE_CL} [measured]") == [128.0, 128.0, 128.0]
    assert ar_measured == sorted(ar_measured, reverse=True)


def test_figure10_naive_clustered_wins():
    result = experiments.figure10(node_counts=(4, 16), num_inserted=6_500)
    for row in result.as_dicts():
        assert row[f"{NAIVE_CL} [measured]"] < row[f"{AR} [measured]"]
        assert row[f"{NAIVE_CL} [measured]"] == pytest.approx(
            row[f"{NAIVE_CL} [model]"]
        )


def test_figure11_curves_flatten():
    result = experiments.figure11(
        insert_counts=(10, 200, 1_000), num_nodes=64, measured_limit=1_000
    )
    naive = result.column(f"{NAIVE_CL} [measured]")
    assert naive[-1] == naive[-2]  # sort-merge plateau reached
    ar = result.column(f"{AR} [measured]")
    assert ar[-1] > ar[0]


def test_figure12_ar_steps():
    result = experiments.figure12(insert_counts=(1, 64, 65, 128), num_nodes=64)
    ar = result.column(f"{AR} [measured]")
    assert ar == [3.0, 3.0, 6.0, 6.0]


def test_figure13_model_equals_measured():
    result = experiments.figure13(node_counts=(2, 4), delta=64, scale=0.002)
    for line in (
        "AR method for JV1", "naive method for JV1",
        "AR method for JV2", "naive method for JV2",
    ):
        model = result.column(f"{line} [model]")
        measured = result.column(f"{line} [measured]")
        assert agreement_ratio(model, measured) == pytest.approx(1.0)


def test_figure14_ar_beats_naive():
    # Counted SQLite VM steps, not wall time: sub-millisecond timings
    # jitter, the step count of a join does not.  The wall-clock ordering
    # is asserted by the full-size benchmark in
    # benchmarks/bench_fig14_sqlite_measured.py.
    for num_nodes in (2, 4):
        with TeradataStyleExperiment(num_nodes=num_nodes, scale=0.02) as experiment:
            with experiment.cluster.counting_vm_steps():
                delta = experiment.new_delta(512)
                for view in ("jv1", "jv2"):
                    ar = getattr(experiment, f"ar_{view}")(delta)
                    naive = getattr(experiment, f"naive_{view}")(delta)
                    assert 0 < ar.response_steps < naive.response_steps, (
                        num_nodes, view
                    )


def test_table1_ratios():
    result = experiments.table1(scale=0.001)
    rows = {row[0]: row for row in result.rows}
    assert rows["orders"][3] == 10 * rows["customer"][3]
    assert rows["lineitem"][3] == 4 * rows["orders"][3]


def test_ext_method_chooser_transitions():
    result = experiments.ext_method_chooser(update_sizes=(1, 100, 100_000))
    recommended = result.column("recommended")
    assert "auxiliary" in recommended
    assert recommended[-1] == "naive"


def test_ext_storage_overhead_trimming_saves_fields():
    result = experiments.ext_storage_overhead(num_nodes=4)
    by_method = {row[0]: row for row in result.rows}
    assert by_method["naive"][2] == 0
    assert (
        by_method["auxiliary (trimmed)"][3] < by_method["auxiliary"][3]
    )


def test_ext_large_update_runs():
    result = experiments.ext_large_update(deltas=(64, 256), scale=0.005)
    assert len(result.rows) == 2
    assert all(row[1] > 0 and row[2] > 0 for row in result.rows)
