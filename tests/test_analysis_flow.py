"""Unit tests for the interprocedural flow rules (REP007-REP009).

Each rule gets a seeded multi-hop violation whose witness names the full
entry→…→sink call path, a clean counterpart, and its justification forms
(domain annotation on the path, ``noqa``, or the structural escape the
rule honours).  Trees are synthetic but laid out like the real package so
the entry-point table matches (``Cluster.insert``,
``Cluster.create_join_view`` etc.).
"""

import textwrap

from repro.analysis import analyze_paths


def run_flow(tmp_path, files, only=None):
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return analyze_paths([str(tmp_path)], only_rules=only)


def rules_of(result):
    return [finding.rule for finding in result.findings]


# ------------------------------------------------------------------ REP007


def test_rep007_uncharged_send_reports_full_path(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from .ship import ship_delta

            class Cluster:
                def insert(self, relation, rows):
                    self._execute(rows)

                def _execute(self, rows):
                    ship_delta(self.pipe, rows)
        """,
        "cluster/ship.py": """
            def ship_delta(pipe, rows):
                pipe.send(rows)
        """,
    }, only=["REP007"])
    assert rules_of(result) == ["REP007"]
    message = result.findings[0].message
    assert "Cluster.insert (cluster/cluster.py:" in message
    assert "Cluster._execute" in message
    assert "ship_delta (cluster/ship.py:" in message
    assert " → " in message
    assert result.findings[0].path == "cluster/ship.py"


def test_rep007_clean_when_unreachable_from_entries(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/ship.py": """
            def orphan_send(pipe, rows):
                pipe.send(rows)
        """,
    }, only=["REP007"])
    assert result.findings == []


def test_rep007_annotation_anywhere_on_the_path_justifies(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from .ship import ship_delta

            class Cluster:
                def insert(self, rows):  # repro: uncharged-mirror=worker IPC only
                    ship_delta(self.pipe, rows)
        """,
        "cluster/ship.py": """
            def ship_delta(pipe, rows):
                pipe.send(rows)
        """,
    }, only=["REP007"])
    assert result.findings == []


def test_rep007_charging_the_send_on_the_path_justifies(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from ..costs import Op
            from .ship import ship_delta

            class Cluster:
                def insert(self, rows):
                    self.ledger.charge(0, Op.SEND, None, len(rows))
                    ship_delta(self.pipe, rows)
        """,
        "cluster/ship.py": """
            def ship_delta(pipe, rows):
                pipe.send(rows)
        """,
    }, only=["REP007"])
    assert result.findings == []


# ------------------------------------------------------------------ REP008


def test_rep008_clock_taint_flows_across_calls_into_charge(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/bill.py": """
            import time

            def elapsed():
                return time.perf_counter()

            def bill(ledger):
                t = elapsed()
                ledger.charge(0, t, None)
        """,
    }, only=["REP008"])
    assert rules_of(result) == ["REP008"]
    message = result.findings[0].message
    assert "wall-clock time" in message
    assert "elapsed (cluster/bill.py:" in message
    assert "CostLedger.charge" in message
    assert " → " in message


def test_rep008_set_order_taint_reaches_wire_envelope(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/wire.py": """
            def pick(nodes):
                order = []
                for node in set(nodes):
                    order.append(node)
                return order

            def emit(conn, nodes):
                conn.send_bytes(_encode(pick(nodes)))

            def _encode(payload):
                return payload
        """,
    }, only=["REP008"])
    assert "REP008" in rules_of(result)
    assert any(
        "set iteration order" in finding.message for finding in result.findings
    )


def test_rep008_annotated_source_is_clean(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/bill.py": """
            import time

            def elapsed():
                return time.perf_counter()  # repro: wall-clock=telemetry only

            def bill(stats):
                stats.observe(elapsed())
        """,
    }, only=["REP008"])
    assert result.findings == []


def test_rep008_reassignment_kills_taint(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/bill.py": """
            import time

            def bill(ledger):
                t = time.perf_counter()
                t = 3
                ledger.charge(0, t, None)
        """,
    }, only=["REP008"])
    # The charge sees the constant; only REP002 (per-file) would flag the
    # clock read itself.
    assert result.findings == []


# ------------------------------------------------------------------ REP009


def test_rep009_unprotected_mutation_reports_full_path(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from .apply import apply_rows

            class Cluster:
                def insert(self, relation, rows):
                    self._write(relation, rows)

                def _write(self, relation, rows):
                    apply_rows(self.nodes, relation, rows)
        """,
        "cluster/apply.py": """
            def apply_rows(nodes, relation, rows):
                for row in rows:
                    nodes[0].fragment(relation).insert(row)
        """,
    }, only=["REP009"])
    assert rules_of(result) == ["REP009"]
    message = result.findings[0].message
    assert "Cluster.insert" in message
    assert "Cluster._write" in message
    assert "apply_rows (cluster/apply.py:" in message


def test_rep009_undo_recording_on_the_path_is_clean(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from .apply import apply_rows

            class Cluster:
                def insert(self, relation, rows):
                    self._record_undo(lambda: None)
                    apply_rows(self.nodes, relation, rows)
        """,
        "cluster/apply.py": """
            def apply_rows(nodes, relation, rows):
                for row in rows:
                    nodes[0].fragment(relation).insert(row)
        """,
    }, only=["REP009"])
    assert result.findings == []


def test_rep009_scope_guard_and_annotation_are_clean(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from .apply import guarded, annotated

            class Cluster:
                def insert(self, relation, rows):
                    guarded(self, relation, rows)
                    annotated(self.nodes, relation, rows)
        """,
        "cluster/apply.py": """
            def guarded(cluster, relation, rows):
                _check_no_open_scope(cluster, "insert")
                cluster.nodes[0].fragment(relation).insert(rows[0])

            def annotated(nodes, relation, rows):  # repro: no-undo=DDL backfill only
                nodes[0].fragment(relation).insert(rows[0])

            def _check_no_open_scope(cluster, operation):
                pass
        """,
    }, only=["REP009"])
    assert result.findings == []


def test_rep009_bulk_write_owes_a_batch_inverse(tmp_path):
    """The bulk paths run inside undo scopes: an ``insert_many`` reached
    from a statement with no inverse is flagged; the same batch with one
    inverse for all of its rowids, recorded by the function that wrote
    it, is clean."""
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            class Cluster:
                def insert(self, relation, rows):
                    self.bulk_unlogged(0, relation, rows, None)
                    self.bulk_logged(0, relation, rows, None)

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
    }, only=["REP009"])
    assert rules_of(result) == ["REP009"]
    assert "bulk_unlogged" in result.findings[0].message


def test_rep009_def_level_annotation_and_noqa(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from .apply import backfill, patch

            class Cluster:
                def insert(self, relation, rows):
                    backfill(self.nodes[0].fragment(relation), rows)
                    patch(self.nodes[0].fragment(relation), rows[0])
        """,
        "cluster/apply.py": """
            def backfill(fragment, rows):  # repro: no-undo=offline DDL build
                for row in rows:
                    fragment.insert(row)

            def patch(fragment, row):
                fragment.insert(row)  # repro: noqa=REP009
        """,
    }, only=["REP009"])
    assert result.findings == []
    assert result.suppressed == 1


DDL_TREE = {
    "cluster/cluster.py": """
        from .views import _check_no_open_scope, backfill

        class Cluster:
            def create_join_view(self, rows):
                _check_no_open_scope(self, "create_join_view")
                backfill(self.nodes, rows)
    """,
    "cluster/views.py": """
        def backfill(nodes, rows):
            for row in rows:
                nodes[0].fragment("JV").insert(row)

        def _check_no_open_scope(cluster, operation):
            pass
    """,
}


def test_rep009_ddl_backfill_is_dominated_by_the_scope_guard(tmp_path):
    """DDL statements are entry points too: a backfill reached from
    ``Cluster.create_join_view`` is flagged unless the DDL refuses to run
    inside an open transaction scope."""
    unguarded = dict(DDL_TREE)
    unguarded["cluster/cluster.py"] = DDL_TREE["cluster/cluster.py"].replace(
        '_check_no_open_scope(self, "create_join_view")', "pass"
    )
    result = run_flow(tmp_path / "unguarded", unguarded, only=["REP009"])
    assert rules_of(result) == ["REP009"]
    message = result.findings[0].message
    assert "Cluster.create_join_view" in message
    assert "backfill (cluster/views.py:" in message

    result = run_flow(tmp_path / "guarded", DDL_TREE, only=["REP009"])
    assert result.findings == []


# -------------------------------------------------------------- integration


def test_flow_findings_honour_noqa_and_count_as_suppressed(tmp_path):
    result = run_flow(tmp_path, {
        "cluster/cluster.py": """
            from .ship import ship_delta

            class Cluster:
                def insert(self, rows):
                    ship_delta(self.pipe, rows)
        """,
        "cluster/ship.py": """
            def ship_delta(pipe, rows):
                pipe.send(rows)  # repro: noqa=REP007
        """,
    }, only=["REP007"])
    assert result.findings == []
    assert result.suppressed == 1
