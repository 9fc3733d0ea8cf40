"""Unit tests for the six reprolint rules (repro.analysis.rules).

Each rule gets a seeded violation (detected), a clean counterpart (not
detected), and its suppression forms (``# repro: noqa=REPxxx`` and the
rule's domain annotation where it has one), exercised over synthetic
module trees laid out like the real package (``cluster/``, ``core/``…).
"""

import textwrap

from repro.analysis import analyze_paths


def run_tree(tmp_path, files, only=None):
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return analyze_paths([str(tmp_path)], only_rules=only)


def rules_of(result):
    return [finding.rule for finding in result.findings]


# ------------------------------------------------------------------ REP001


def test_rep001_flags_non_network_send(tmp_path):
    result = run_tree(tmp_path, {
        "cluster/engine.py": """
            def go(pipe, payload):
                pipe.send(payload)
        """,
    }, only=["REP001"])
    assert rules_of(result) == ["REP001"]
    assert "bypasses the charging Network wrapper" in result.findings[0].message


def test_rep001_flags_direct_send_charge(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(ledger, node, Op, tag):
                ledger.charge(node, Op.SEND, tag)
        """,
    }, only=["REP001"])
    assert rules_of(result) == ["REP001"]
    assert "diverge" in result.findings[0].message


def test_rep001_network_wrapper_calls_are_clean(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(self, src, dst, tag):
                self.network.send(src, dst, tag)
                self.cluster.network.broadcast_many(src, 3, tag)
        """,
    }, only=["REP001"])
    assert result.findings == []


def test_rep001_annotation_and_noqa(tmp_path):
    result = run_tree(tmp_path, {
        "cluster/engine.py": """
            def go(pipe, other, payload):
                pipe.send(payload)  # repro: uncharged-mirror=IPC reply only
                other.send(payload)  # repro: noqa=REP001
        """,
    }, only=["REP001"])
    assert result.findings == []
    assert result.suppressed == 1  # the noqa; annotations silence in-rule


def test_rep001_out_of_scope_dirs_ignored(tmp_path):
    result = run_tree(tmp_path, {
        "bench/engine.py": "def go(pipe):\n    pipe.send(1)\n",
    }, only=["REP001"])
    assert result.findings == []


# ------------------------------------------------------------------ REP002


def test_rep002_flags_clocks_and_rng(tmp_path):
    result = run_tree(tmp_path, {
        "costs/engine.py": """
            import random
            import time

            def go():
                a = time.time()
                b = random.random()
                c = random.Random()
                return a, b, c
        """,
    }, only=["REP002"])
    assert rules_of(result) == ["REP002", "REP002", "REP002"]


def test_rep002_flags_raw_set_iteration(tmp_path):
    result = run_tree(tmp_path, {
        "costs/engine.py": """
            def go(a, b):
                out = {}
                for cell in set(a) | set(b):
                    out[cell] = 1
                return out
        """,
    }, only=["REP002"])
    assert rules_of(result) == ["REP002"]
    assert "sorted" in result.findings[0].message


def test_rep002_sorted_sets_and_seeded_rng_clean(tmp_path):
    result = run_tree(tmp_path, {
        "costs/engine.py": """
            import random

            def go(a, b):
                rng = random.Random(17)
                return [rng.random()] + [c for c in sorted(set(a) | set(b))]
        """,
    }, only=["REP002"])
    assert result.findings == []


def test_rep002_wall_clock_annotation(tmp_path):
    result = run_tree(tmp_path, {
        "cluster/engine.py": """
            import time

            def go():
                return time.perf_counter_ns()  # repro: wall-clock=telemetry only
        """,
    }, only=["REP002"])
    assert result.findings == []


# ------------------------------------------------------------------ REP003


def test_rep003_flags_direct_tracer_and_unguarded_access(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(obs):
                t = Tracer()
                obs.metrics.counter("x").inc()
                return t
        """,
    }, only=["REP003"])
    assert rules_of(result) == ["REP003", "REP003"]


def test_rep003_flags_facade_mutation(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(cluster, registry):
                cluster.obs.metrics = registry
        """,
    }, only=["REP003"])
    assert rules_of(result) == ["REP003"]
    assert "mutates the observability facade" in result.findings[0].message


def test_rep003_guarded_access_and_span_clean(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(obs):
                with obs.span("phase", n=1):
                    pass
                if obs.enabled:
                    obs.metrics.counter("x").inc()
                    obs.event("hit")
                value = obs.metrics.gauge("y") if obs.enabled else None
                return value
        """,
    }, only=["REP003"])
    assert result.findings == []


def test_rep003_def_level_obs_guarded_annotation(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def emit(obs, n):  # repro: obs-guarded=caller tests obs.enabled
                obs.metrics.counter("x").inc(n)
                obs.event("emit", n=n)
        """,
    }, only=["REP003"])
    assert result.findings == []


# ------------------------------------------------------------------ REP004


def test_rep004_flags_literal_cost_parameters(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go():
                return CostParameters(insert_ios=2.0)
        """,
    }, only=["REP004"])
    assert rules_of(result) == ["REP004"]
    assert "model layer" in result.findings[0].message


def test_rep004_flags_literal_ios_keyword(tmp_path):
    result = run_tree(tmp_path, {
        "joins/engine.py": """
            def go(thing):
                thing.configure(fetch_ios=-1.5)
        """,
    }, only=["REP004"])
    assert rules_of(result) == ["REP004"]


def test_rep004_model_layer_and_bench_exempt(tmp_path):
    source = "def go():\n    return CostParameters(insert_ios=2.0)\n"
    result = run_tree(tmp_path, {
        "costs/model.py": source,
        "model/params.py": source,
        "bench/sweeps.py": source,
    }, only=["REP004"])
    assert result.findings == []


def test_rep004_derived_weights_and_annotation_clean(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(base, scale):
                a = CostParameters(insert_ios=base.insert_ios * scale)
                b = CostParameters(insert_ios=4.0)  # repro: cost-literal=sensitivity probe
                return a, b
        """,
    }, only=["REP004"])
    assert result.findings == []


# ------------------------------------------------------------------ REP005


def test_rep005_flags_unregistered_construction_kind(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(engine, ops):
                ops.append(("bogus_kind", 0, "A"))
                engine.run_ops([("also_bogus", 1, "B")])
                return engine.run_ops([
                    ("another", node, "C") for node in range(2)
                ])
        """,
    }, only=["REP005"])
    assert rules_of(result) == ["REP005", "REP005", "REP005"]
    assert "unregistered kind" in result.findings[0].message


def test_rep005_registered_kinds_clean(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(engine, ops):
                ops.append(("ins", 0, "A", [(1,)], "tag"))
                ops.append(("charge", 1, "SEARCH", "tag", 2))
                return engine.run_ops(ops)
        """,
    }, only=["REP005"])
    assert result.findings == []


def test_rep005_handler_exhaustiveness(tmp_path):
    # A fake engine file missing the "merge" branch in _execute_op, and an
    # _apply_block that skips "gi_delta" while handling a block kind the
    # registry has never heard of.
    result = run_tree(tmp_path, {
        "cluster/parallel.py": """
            def _execute_op(nodes, op):
                kind = op[0]
                if kind in ("probe", "gi_probe", "fetch", "charge"):
                    return None
                if kind == "ins" or kind == "del" or kind == "rr_del":
                    return None
                if kind == "gi_ins" or kind == "gi_del":
                    return None
                if kind in ("migrate", "handoff", "replica_apply"):
                    return None
                raise ValueError(kind)

            def _apply_block(nodes, cache, block, data=True):
                kind = block.kind
                if kind == "frag_delta":
                    return
                if kind == "view_snapshot":
                    return
                raise ValueError(kind)
        """,
    }, only=["REP005"])
    messages = [finding.message for finding in result.findings]
    assert any("no branch for envelope kind 'merge'" in m for m in messages)
    assert any(
        "no branch for envelope kind 'gi_delta'" in m for m in messages
    )
    assert any(
        "handles kind 'view_snapshot' which is outside BLOCK_KINDS" in m
        for m in messages
    )
    assert len(result.findings) == 3


def test_rep005_flags_unregistered_block_kind(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(journal):
                good = DeltaBlock("frag_delta", 0, "A")
                named = DeltaBlock(FRAG_DELTA, 0, "A")
                bad = DeltaBlock("bogus_block", 0, "A")
                also_bad = DeltaBlock(kind="view_patch", node=1, name="V")
                return good, named, bad, also_bad
        """,
    }, only=["REP005"])
    assert rules_of(result) == ["REP005", "REP005"]
    assert "unregistered kind 'bogus_block'" in result.findings[0].message
    assert "unregistered kind 'view_patch'" in result.findings[1].message


def test_rep005_real_engine_is_exhaustive():
    from repro.cluster import parallel

    result = analyze_paths([parallel.__file__], only_rules=["REP005"])
    assert result.findings == []
    assert parallel.MUTATING_KINDS == parallel.COMMAND_KINDS - parallel.READ_ONLY_KINDS


# ------------------------------------------------------------------ REP006


def test_rep006_flags_unlogged_mutation(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def fold(fragment, rowid, row):
                fragment.delete(rowid)
                fragment.insert(row)
        """,
    }, only=["REP006"])
    assert rules_of(result) == ["REP006", "REP006"]
    assert "undo" in result.findings[0].message


def test_rep006_undo_logged_function_clean(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def fold(self, fragment, rowid, row):
                stored = fragment.table.fetch(rowid)
                fragment.delete(rowid)
                self._record_undo(lambda: fragment.restore(rowid, stored))
        """,
    }, only=["REP006"])
    assert result.findings == []


def test_rep006_bulk_write_owes_a_batch_inverse(tmp_path):
    """The bulk paths run inside undo scopes: an ``insert_many`` with no
    inverse is flagged, the same batch with one inverse for all of its
    rowids (recorded by the function that wrote it) is clean."""
    result = run_tree(tmp_path, {
        "cluster/cluster.py": """
            def bulk_unlogged(self, home, name, rows, tag):
                return self.nodes[home].insert_many(name, rows, tag)

            def bulk_logged(self, home, name, rows, tag):
                node = self.nodes[home]
                rowids = node.insert_many(name, rows, tag)
                if self._undo_logs:
                    self._undo_logs[-1].record(
                        node.fragment(name).delete_many,
                        node=home, tag=tag, writes=len(rowids), args=(rowids,),
                    )
                return rowids
        """,
    }, only=["REP006"])
    assert rules_of(result) == ["REP006"]
    assert "bulk_unlogged" in result.findings[0].message


def test_rep006_def_level_annotation_and_noqa(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def backfill(fragment, rows):  # repro: no-undo=offline DDL build
                for row in rows:
                    fragment.insert(row)

            def patch(fragment, row):
                fragment.insert(row)  # repro: noqa=REP006
        """,
    }, only=["REP006"])
    assert result.findings == []
    assert result.suppressed == 1


def test_rep006_node_layer_and_plain_receivers_exempt(tmp_path):
    result = run_tree(tmp_path, {
        "cluster/node.py": """
            def insert(self, name, row):
                return self.fragment(name).insert(row)
        """,
        "core/other.py": """
            def go(queue, item):
                queue.insert(0, item)
        """,
    }, only=["REP006"])
    assert result.findings == []


# ------------------------------------------------------------------ REP000


def test_rep000_malformed_suppressions_reported(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            def go(pipe):
                pipe.send(1)  # repro: noqa
                pipe.send(2)  # repro: wall-clock=
                pipe.send(3)  # repro: wat=hello
        """,
    }, only=["REP001"])
    rep000 = [f for f in result.findings if f.rule == "REP000"]
    assert len(rep000) == 3
    # And the malformed noqa did NOT silence the REP001 findings.
    assert len([f for f in result.findings if f.rule == "REP001"]) == 3


def test_rep000_syntax_error_reported(tmp_path):
    result = run_tree(tmp_path, {"core/broken.py": "def go(:\n    pass\n"})
    assert rules_of(result) == ["REP000"]
    assert "does not parse" in result.findings[0].message


# ----------------------------------------------------------- the real tree


def test_real_source_tree_is_clean():
    """The shipped tree must satisfy every rule with an empty baseline —
    the acceptance bar of this subsystem."""
    import repro

    root = repro.__path__[0]
    result = analyze_paths([root])
    assert result.findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    )
