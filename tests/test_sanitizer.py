"""Runtime sanitizer (``Cluster(sanitize=True)`` / ``REPRO_SANITIZE=1``).

Two halves, matching ISSUE 5's acceptance bar:

* **Transparency** — a sanitized run's ledger cells, network statistics,
  and fragment contents are bit-identical to an unsanitized run that
  differs only in the flag.  The sanitizer observes; it never charges.
* **Teeth** — each dynamic invariant check actually fires when its
  invariant is broken (seeded by corrupting engine state from the test,
  the runtime analogue of the seeded-source rule tests).
"""

import random

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.analysis.sanitizer import (
    SanitizeError,
    SendAccountingNetwork,
    StatementSanitizer,
    install,
)
from repro.cluster.network import Network
from repro.cluster.parallel import COMMAND_KINDS, validate_op
from repro.costs import Op, Tag
from tests.conftest import fragment_contents, network_state, run_ops

METHODS = ("naive", "auxiliary", "global_index", "hybrid")


def _build(method, *, sanitize, num_nodes=4, **kwargs):
    cluster = Cluster(num_nodes=num_nodes, sanitize=sanitize, **kwargs)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method=method,
    )
    return cluster


def _script(seed, steps=30, keys=7):
    rng = random.Random(seed)
    ops, serial, live = [], 0, {"A": [], "B": []}
    for _ in range(steps):
        kind = rng.choice(("ins", "ins", "del", "upd"))
        rel = rng.choice(("A", "B"))
        if kind == "ins":
            rows = []
            for _ in range(rng.randrange(1, 5)):
                rows.append((1000 + serial, rng.randrange(keys), serial))
                serial += 1
            live[rel].extend(rows)
            ops.append(("insert", rel, rows))
        elif kind == "del" and live[rel]:
            ops.append(
                ("delete", rel, [live[rel].pop(rng.randrange(len(live[rel])))])
            )
        elif kind == "upd" and live[rel]:
            old = live[rel].pop(rng.randrange(len(live[rel])))
            new = (1000 + serial, rng.randrange(keys), serial)
            serial += 1
            live[rel].append(new)
            ops.append(("update", rel, [(old, new)]))
    return ops


# ------------------------------------------------------------- transparency


@pytest.mark.parametrize("method", METHODS)
def test_sanitized_run_is_bit_identical(method):
    plain = _build(method, sanitize=False)
    sanitized = _build(method, sanitize=True)
    ops = _script(seed=hash(method) & 0xFFFF)
    run_ops(plain, ops)
    run_ops(sanitized, ops)
    assert not sanitized.ledger.diff(plain.ledger)
    assert network_state(sanitized) == network_state(plain)
    for name in ("A", "B", "JV"):
        assert fragment_contents(sanitized, name) == fragment_contents(plain, name)
    assert sanitized._sanitizer is not None
    assert sanitized._sanitizer.checks_run > 0


def test_sanitized_parallel_inline_engine_is_bit_identical():
    plain = _build("auxiliary", sanitize=False, workers=1)
    sanitized = _build("auxiliary", sanitize=True, workers=1)
    try:
        ops = _script(seed=99)
        run_ops(plain, ops)
        run_ops(sanitized, ops)
        assert not sanitized.ledger.diff(plain.ledger)
        assert fragment_contents(sanitized, "JV") == fragment_contents(plain, "JV")
    finally:
        plain.close()
        sanitized.close()


def test_sanitized_transaction_rollback_still_clean():
    cluster = _build("auxiliary", sanitize=True)
    before = fragment_contents(cluster, "JV")
    txn = cluster.transaction()
    with txn:
        txn.insert("A", [(5000, 1, "x"), (5001, 2, "y")])
        txn.rollback()
    assert fragment_contents(cluster, "JV") == before


def test_sanitize_with_fault_injector_disarms_parity():
    from repro.faults import FaultPlan, attach_faults

    cluster = _build("auxiliary", sanitize=True)
    attach_faults(cluster, plan=FaultPlan().drop(times=3), seed=7)
    # Unreliable sends make charge counts fate-dependent; the parity
    # counter must disarm instead of raising spurious errors.
    run_ops(cluster, _script(seed=3, steps=15))
    assert not cluster.network.parity_armed


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = Cluster(num_nodes=2)
    assert cluster.sanitize
    assert isinstance(cluster.network, SendAccountingNetwork)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not Cluster(num_nodes=2).sanitize
    monkeypatch.delenv("REPRO_SANITIZE")
    off = Cluster(num_nodes=2)
    assert not off.sanitize and off._sanitizer is None
    assert type(off.network) is Network  # no accounting subclass when off


# -------------------------------------------------------------------- teeth


def _sanitized():
    cluster = _build("auxiliary", sanitize=True)
    cluster.insert("A", [(0, 0, "seed")])
    return cluster


def test_parity_check_catches_uncharged_send():
    cluster = _sanitized()
    # A message that reaches the stats counters without a ledger charge:
    # exactly the drift REP007 bans at source level.
    cluster.network.expected_send_charges += 1
    with pytest.raises(SanitizeError, match="SEND charge parity"):
        cluster._sanitizer.check("seeded")


def test_parity_check_catches_out_of_band_charge():
    cluster = _sanitized()
    cluster.ledger.charge(0, Op.SEND, Tag.MAINTAIN)  # bypasses the wrapper
    with pytest.raises(SanitizeError, match="SEND charge parity"):
        cluster._sanitizer.check("seeded")


def test_ledger_cell_check_catches_out_of_range_node():
    cluster = _sanitized()
    cluster.ledger.charge(99, Op.INSERT, Tag.BASE)
    with pytest.raises(SanitizeError, match="outside"):
        cluster._sanitizer.check("seeded")


def test_network_stats_check_catches_bypassed_counter():
    cluster = _sanitized()
    cluster.network.stats.messages += 3
    with pytest.raises(SanitizeError, match="bypassed"):
        cluster._sanitizer.check("seeded")


def test_disabled_facade_check_catches_pollution(monkeypatch):
    from repro.obs.collect import DISABLED

    cluster = _sanitized()
    monkeypatch.setitem(DISABLED.metrics._metrics, "oops_total", object())
    with pytest.raises(SanitizeError, match="DISABLED observability facade"):
        cluster._sanitizer.check("seeded")


def test_validate_op_rejects_unknown_and_malformed_kinds():
    with pytest.raises(AssertionError, match="unknown envelope op kind"):
        validate_op(("bogus_kind", 1, 2))
    with pytest.raises(AssertionError, match="non-empty tuple"):
        validate_op(())
    with pytest.raises(AssertionError, match="non-empty tuple"):
        validate_op(["probe"])
    for kind in COMMAND_KINDS:
        validate_op((kind,))  # registered vocabulary passes


def test_install_refuses_cluster_with_traffic():
    cluster = _build("auxiliary", sanitize=False)
    cluster.insert("A", [(1, 1, "x")])  # cross-node maintenance traffic
    assert cluster.network.stats.messages > 0
    with pytest.raises(RuntimeError, match="before any traffic"):
        install(cluster)


def test_statement_hook_runs_per_statement():
    cluster = _build("naive", sanitize=True)
    sanitizer = cluster._sanitizer
    assert isinstance(sanitizer, StatementSanitizer)
    ran = sanitizer.checks_run
    cluster.insert("A", [(1, 1, "x")])
    assert sanitizer.checks_run == ran + 1
