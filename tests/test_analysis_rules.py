"""Unit tests for the per-file reprolint rules (repro.analysis.rules).

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


# ------------------------------------------------------------------ REP000


def test_rep000_malformed_suppressions_reported(tmp_path):
    result = run_tree(tmp_path, {
        "core/engine.py": """
            import time

            def go():
                a = time.time()  # repro: noqa
                b = time.time()  # repro: wall-clock=
                c = time.time()  # repro: wat=hello
                return a, b, c
        """,
    }, only=["REP002"])
    rep000 = [f for f in result.findings if f.rule == "REP000"]
    assert len(rep000) == 3
    # And the malformed comments did NOT silence the REP002 findings.
    assert len([f for f in result.findings if f.rule == "REP002"]) == 3


def test_rep000_syntax_error_reported(tmp_path):
    result = run_tree(tmp_path, {"core/broken.py": "def go(:\n    pass\n"})
    assert rules_of(result) == ["REP000"]
    assert "does not parse" in result.findings[0].message


# ----------------------------------------------------------- the real tree


def test_real_source_tree_is_clean():
    """The shipped tree must satisfy every rule, the interprocedural ones
    included — the acceptance bar of this subsystem."""
    import repro

    root = repro.__path__[0]
    result = analyze_paths([root])
    assert result.findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
    )
