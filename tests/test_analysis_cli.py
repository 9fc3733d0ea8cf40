"""CLI and reporter tests for ``python -m repro.analysis``."""

import json
import textwrap

from repro.analysis import Finding
from repro.analysis.__main__ import main

#: An uncharged raw send reachable from ``Cluster.insert`` (one REP007).
FLOW_TREE = {
    "cluster/cluster.py": textwrap.dedent(
        """
        from .ship import ship_delta

        class Cluster:
            def insert(self, rows):
                ship_delta(self.pipe, rows)
        """
    ),
    "cluster/ship.py": textwrap.dedent(
        """
        def ship_delta(pipe, rows):
            pipe.send(rows)
        """
    ),
}


def seed_tree(tmp_path, files=FLOW_TREE):
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


# ----------------------------------------------------------------- reports


def test_json_report_round_trips(tmp_path, capsys):
    seed_tree(tmp_path)
    code = main(["--format=json", str(tmp_path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["files_analyzed"] == 2
    (entry,) = payload["findings"]
    finding = Finding.from_dict(entry)
    assert finding.rule == "REP007"
    assert finding.path == "cluster/ship.py"
    assert finding.line == 3
    assert finding.snippet == "pipe.send(rows)"
    assert finding.to_dict() == entry


def test_text_report_and_exit_codes(tmp_path, capsys):
    seed_tree(tmp_path)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "cluster/ship.py:3:" in out
    assert "REP007" in out

    clean = tmp_path / "cluster" / "ship.py"
    clean.write_text("def ship_delta(pipe, rows):\n    return rows\n")
    assert main([str(tmp_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_rules_filter_and_unknown_rule(tmp_path, capsys):
    seed_tree(tmp_path)
    assert main(["--rules=REP002", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["--rules=REP999", str(tmp_path)]) == 2
    assert "unknown rule ids" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == ["REP002", "REP003", "REP005", "REP007", "REP008", "REP009"]
    assert "uncharged-mirror" in out


# ------------------------------------------------------------- flow layer


def test_flow_rules_filter_and_unknown_rule(tmp_path, capsys):
    seed_tree(tmp_path)
    # Per-file and flow ids mix freely in one --rules list.
    assert main(["--rules=REP002,REP007", "--format=json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["REP007"]
    assert "Cluster.insert" in payload["findings"][0]["message"]
    assert main(["--rules=REP007,REP010", str(tmp_path)]) == 2
    assert "unknown rule ids" in capsys.readouterr().err


def test_dot_export_works_alone(tmp_path, capsys):
    seed_tree(tmp_path)
    dot_path = tmp_path / "graph.dot"
    assert main(["--dot", str(dot_path), str(tmp_path)]) == 1
    dot = dot_path.read_text()
    assert dot.startswith("digraph repro_callgraph {")
    assert '"cluster.ship.ship_delta"' in dot


def test_list_rules_includes_flow_layer(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP007", "REP008", "REP009"):
        assert rule_id in out
    assert "(flow)" in out


# ------------------------------------------------------------------- audit


def test_audit_reports_stale_and_live_suppressions(tmp_path, capsys):
    seed_tree(tmp_path, {
        "cluster/cluster.py": FLOW_TREE["cluster/cluster.py"],
        "cluster/ship.py": (
            "def ship_delta(pipe, rows):\n"
            "    pipe.send(rows)  # repro: noqa=REP007\n"
            "    value = 1  # repro: noqa=REP002\n"
            "    return value\n"
        ),
    })
    assert main(["--audit-suppressions", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["total"] == 2
    assert payload["stale"] == 1
    by_rule = {entry["rule"]: entry for entry in payload["suppressions"]}
    assert by_rule["REP007"]["used"] is True
    assert by_rule["REP002"]["used"] is False
    assert by_rule["REP002"]["kind"] == "noqa"
    assert "stale suppression" in captured.err


def test_audit_clean_tree_exits_zero(tmp_path, capsys):
    seed_tree(tmp_path, {
        "cluster/cluster.py": FLOW_TREE["cluster/cluster.py"],
        "cluster/ship.py": (
            "def ship_delta(pipe, rows):\n"
            "    pipe.send(rows)  # repro: noqa=REP007\n"
        ),
    })
    assert main(["--audit-suppressions", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stale"] == 0
    assert payload["total"] == 1


def test_audit_counts_flow_annotation_use(tmp_path, capsys):
    seed_tree(tmp_path, {
        "cluster/cluster.py": FLOW_TREE["cluster/cluster.py"].replace(
            "def insert(self, rows):",
            "def insert(self, rows):  # repro: uncharged-mirror=IPC only",
        ),
        "cluster/ship.py": FLOW_TREE["cluster/ship.py"],
    })
    assert main(["--audit-suppressions", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    annotation = next(
        e for e in payload["suppressions"] if e["kind"] == "annotation"
    )
    assert annotation["key"] == "uncharged-mirror"
    assert annotation["used"] is True


# -------------------------------------------------------------- interleave


def test_interleave_subcommand_smoke(capsys):
    from repro.cluster.parallel import fork_available

    if not fork_available():
        import pytest

        pytest.skip("fork start method unavailable")
    code = main([
        "interleave", "--workers=2", "--seeds=1", "--steps=6",
        "--methods=naive", "--modes=eager",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "all bit-identical" in captured.out
    assert "1 schedules" in captured.out
