"""REP006 — storage mutations in transactional scopes must be undo-logged.

``Cluster`` guarantees statement/transaction atomicity by pairing every
fragment or GI-partition mutation with a compensating ``_record_undo``
action; rollback replays them in reverse.  A mutation that skips the undo
log *appears* to work — until a fault or explicit rollback restores the
base relations but leaves the derived state mutated (exactly the
aggregate-view corruption this rule was written against).

Scoped to the orchestration layers (``core/``, ``cluster/cluster.py``,
``cluster/transactions.py``, ``faults/``); the storage primitives in
``cluster/node.py`` are *below* the undo log by design, and
``cluster/parallel.py`` runs only behind the parallel gate, which drains
whenever an undo scope is open.

Flags any call ``<receiver>.insert/insert_many/delete/delete_matching/
delete_by_rowid/restore/gi_insert/gi_delete(...)`` whose receiver text
mentions a fragment / node / GI partition, when the enclosing function
never touches the undo machinery (``_record_undo``,
``_snapshot_queue_undo``, or ``record`` on an ``*undo*`` receiver).

The bulk paths are no exception: they run inside undo scopes too, and a
batch write (``insert_many``) owes one inverse for the whole batch,
recorded by the function that performs it.

Legitimately unlogged sites — DDL backfills that run before any scope can
exist, audit repairs that *are* the recovery path — annotate
``# repro: no-undo=<why rollback can never see this>`` on the line or the
enclosing ``def``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..findings import Finding
from . import register
from .base import RuleContext, call_name, expr_text

SCOPE = ("core/", "cluster/cluster.py", "cluster/transactions.py", "faults/")

MUTATORS = {
    "insert", "insert_many", "delete", "delete_matching",
    "delete_by_rowid", "restore", "gi_insert", "gi_delete",
}
#: Receiver-text markers of modeled storage (vs. plain dicts/lists).
STORAGE_MARKERS = ("fragment", "gi_partition", "node")
UNDO_MARKERS = ("_record_undo", "record_undo", "_snapshot_queue_undo")


def _is_storage_mutation(node: ast.Call) -> Optional[str]:
    name = call_name(node)
    if name not in MUTATORS or not isinstance(node.func, ast.Attribute):
        return None
    receiver = expr_text(node.func.value)
    if any(marker in receiver for marker in STORAGE_MARKERS):
        return f"{receiver}.{name}"
    return None


def _touches_undo(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name in UNDO_MARKERS:
            return True
        if name == "record" and isinstance(node.func, ast.Attribute):
            if "undo" in expr_text(node.func.value):
                return True
    return False


def _enclosing_functions(
    tree: ast.Module,
) -> List[Tuple[int, int, ast.AST]]:
    spans: List[Tuple[int, int, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            spans.append((node.lineno, end, node))
    return spans


@register(
    "REP006",
    "storage mutations must be undo-logged or annotated as scope-free",
    annotation="no-undo",
)
def check_undo(ctx: RuleContext) -> Iterable[Finding]:
    if not ctx.in_dirs(SCOPE) or ctx.path == "cluster/node.py":
        return []
    findings: List[Finding] = []
    spans = _enclosing_functions(ctx.tree)

    def innermost(line: int) -> Optional[ast.AST]:
        best: Optional[Tuple[int, int, ast.AST]] = None
        for start, end, fn in spans:
            if start <= line <= end and (
                best is None or start > best[0]
            ):
                best = (start, end, fn)
        return best[2] if best else None

    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        site = _is_storage_mutation(node)
        if site is None:
            continue
        if ctx.annotated("no-undo", node.lineno):
            continue
        fn = innermost(node.lineno)
        if fn is not None and _touches_undo(fn):
            continue
        where = f"function {fn.name!r}" if fn is not None else "module scope"  # type: ignore[attr-defined]
        findings.append(
            Finding(
                rule="REP006",
                path=ctx.path,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"storage mutation '{site}(...)' in {where} without any "
                    "undo recording: rollback would restore base relations "
                    "but not this state; record an undo action or annotate "
                    "'# repro: no-undo=<why rollback can never see this>'"
                ),
            )
        )
    return findings
