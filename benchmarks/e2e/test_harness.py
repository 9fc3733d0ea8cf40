"""Tests of the benchmark harness itself (not collected by tier-1:
``testpaths = ["tests"]``).  Run with ``python -m pytest benchmarks/e2e``.
"""

import hashlib
import json
import subprocess
import sys

from _bootstrap import HERE, ROOT  # first: puts src/ on the import path

import harness
import pytest
from trace import COUNT_POINTS, SPAN_POINTS, Tracer
from workloads import METHODS, SPECS, OpStream, pinned_ab_read, smoke

from repro.costs.ledger import format_cell_diff

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _writes(stream: OpStream, statements: int):
    """The first ``statements`` non-rollback write ops of a stream."""
    ops = []
    while len(ops) < statements:
        ops.extend(
            op for op in stream.next_round() if op[0] not in ("read", "rollback")
        )
    return ops[:statements]


def _digest(name: str, seed: int, rounds: int = 2) -> str:
    stream = OpStream(smoke(SPECS[name]), seed)
    payload = repr([stream.next_round() for _ in range(rounds)])
    return hashlib.sha256(payload.encode()).hexdigest()


# ------------------------------------------------------------ generation


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generation_is_byte_identical_across_processes(name):
    script = (
        "from _bootstrap import ROOT; import test_harness; "
        f"print(test_harness._digest({name!r}, 7))"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script], cwd=HERE, check=True,
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": ""},
        ).stdout.strip()
        for hash_seed in ("1", "2")
    }
    assert digests == {_digest(name, 7)}
    assert _digest(name, 8) not in digests


def test_txn_stream_minus_rollbacks_is_the_autocommit_stream():
    control = _writes(OpStream(SPECS["stream_autocommit"], 3), 1500)
    transactional = OpStream(SPECS["stream_txn_replicated"], 3)
    rollbacks = [op for op in transactional.next_round() if op[0] == "rollback"]
    assert len(rollbacks) == SPECS["stream_txn_replicated"].round_stmts // 16
    assert _writes(OpStream(SPECS["stream_txn_replicated"], 3), 1500) == control


@pytest.mark.parametrize("name", sorted(SPECS))
def test_victims_of_one_statement_are_distinct(name):
    stream = OpStream(smoke(SPECS[name]), 11)
    for _ in range(3):
        for op in stream.next_round():
            if op[0] == "delete":
                assert len(set(op[2])) == len(op[2])
            elif op[0] == "update":
                olds = [old for old, _ in op[2]]
                assert len(set(olds)) == len(olds)


def test_stream_mix_is_exact_per_block():
    ops = _writes(OpStream(SPECS["stream_autocommit"], 5), 500)
    kinds = [op[0] for op in ops]
    assert (kinds.count("insert"), kinds.count("delete"), kinds.count("update")) == (
        300, 100, 100
    )


# ------------------------------------------------------------------ maths


def test_percentile_and_median_of_rounds_on_known_samples():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 0.50) == pytest.approx(50.5)
    assert harness.percentile(samples, 0.95) == pytest.approx(95.05)
    assert harness.percentile(samples, 0.99) == pytest.approx(99.01)
    assert harness.percentile([4.0], 0.95) == 4.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    # rates 10, 20, 40, 5, 100 rows/s: one slow and one fast round do not move it
    assert harness.median_rate([10, 20, 40, 10, 100], [1, 1, 1, 2, 1]) == 20
    # a slow phase over rounds 3-5 of 6 leaves the picked rounds untouched
    assert harness.faster_half([100, 98, 60, 55, 58, 90]) == [0, 1, 5]
    assert harness.faster_half([5.0, 4.0, 3.0, 2.0, 1.0]) == [0, 1, 2]


# ---------------------------------------------------------- verification


def _executed_runs(name: str, seed: int = 2, tracer=None):
    spec = smoke(SPECS[name])
    stream = OpStream(spec, seed)
    runs = {
        method: harness.MethodRun(spec, method, harness.build_cluster(spec, stream, method))
        for method in METHODS
    }
    ops = stream.next_round()
    for run in runs.values():
        run.run_round(ops, tracer)
    return runs


def test_clean_run_verifies_and_corrupted_view_fails_every_op():
    runs = _executed_runs("stream_autocommit")
    attempted, failed = harness.tally(runs, harness.verify(runs))
    assert (attempted > 0, failed) == (True, 0)
    # Drop one stored view row behind the engine's back.
    victim = runs["auxiliary"].cluster
    node = next(n for n in victim.nodes if len(n.fragment("JV").table))
    rowid = next(iter(node.fragment("JV").table.scan()))[0]
    node.fragment("JV").delete(rowid)
    verdict = harness.verify(runs)
    assert verdict == dict.fromkeys(METHODS, False)
    attempted, failed = harness.tally(runs, verdict)
    assert failed / attempted == 1.0


def test_wrong_read_count_is_one_failed_op():
    runs = _executed_runs("stream_autocommit")
    run = runs["naive"]
    before = run.failed
    run.run_round([("read", pinned_ab_read(0), 99)], None)
    assert run.failed == before + 1


# ---------------------------------------------------------------- tracer


def test_tracer_restores_originals_and_leaves_ledgers_bit_identical():
    tables = [*SPAN_POINTS.values(), *(owners for _, owners in COUNT_POINTS.values())]
    points = [
        (owner, name) for owners in tables for owner, names in owners for name in names
    ]
    originals = {(owner, name): vars(owner)[name] for owner, name in points}
    tracer = Tracer(dict.fromkeys((unit for unit, _ in COUNT_POINTS.values()), 100.0))
    tracer.install()
    assert all(vars(owner)[name] is not originals[owner, name] for owner, name in points)
    with pytest.raises(RuntimeError):
        tracer.install()
    try:
        traced = _executed_runs("stream_txn_replicated", tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[name] is originals[owner, name] for owner, name in points)
    plain = _executed_runs("stream_txn_replicated")
    for method in METHODS:
        diff = traced[method].cluster.ledger.diff(plain[method].cluster.ledger)
        assert not diff, format_cell_diff(diff)
    assert tracer.leaf_calls("costs.ledger") > 0
    assert tracer.leaf_calls("faults.undo") > 0
    self_s = tracer.layer_self_seconds()
    assert self_s["cluster.transactions"] > 0
    assert self_s["cluster.parallel.run_ops"] == 0
    roots = sum(span[3] - span[2] for span in tracer.spans if span[4] < 0) / 1e9
    assert sum(self_s.values()) == pytest.approx(roots, rel=0.05)


# -------------------------------------------------------------- contract


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPECS)
    assert BENCHMARK["run_seconds"] == harness.NOMINAL_SECONDS
    assert BENCHMARK["paths"] == [str(HERE.relative_to(ROOT))]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", ("read_mixed_deferred", "bulk_skewed_pool"))
def test_contract_line_names_every_metric(name, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "4",
         "--smoke", "--trace", str(trace)],
        check=True, capture_output=True, text=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["failed"]) == (True, 0)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {metric["name"] for metric in section}
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_fixed_rounds_repeat_every_count_exactly():
    spec = smoke(SPECS["read_mixed_deferred"])
    first, second = (
        harness.run_workload(spec, seed=6, rounds=2)["end_to_end"] for _ in range(2)
    )
    for name in ("tw_ios_per_row", "resp_ios_per_stmt"):
        assert first[name] == second[name]
