"""Interprocedural flow rules: REP007 (charge flow), REP009 (undo
domination), and the registration table that also hosts REP008 (the
determinism taint engine in :mod:`.taint`).

These are whole-program proofs over the :mod:`.callgraph`: a site is
judged not by its own function alone but by every **call path** that
reaches it from a statement or DDL entry point, and each finding carries
the shortest offending path as an ``entry → … → sink`` witness.  Findings
use the ordinary :class:`~repro.analysis.findings.Finding` schema (so noqa
and the reporters apply unchanged), and each rule honours one domain
annotation anywhere on the path: a justified wrapper clears every route
through it.

Path searches are deterministic (BFS in sorted order) and per-rule edge
policies differ on purpose:

* REP007 follows **all** edges, including the by-name fallback — missing
  a reachable uncharged send is worse than walking a spurious edge, and a
  spurious path still needs a justification only at one function on it;
* REP009 follows only ``direct``/``self`` edges — domination is a
  precision claim, and the by-name fallback would conflate ``Cluster.
  insert`` with ``Node.insert`` (same bare name) and manufacture paths
  that skip the undo-recording middle layers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .callgraph import (
    CallEdge,
    CallGraph,
    FunctionInfo,
    _own_calls,
    build_callgraph,
)
from .findings import Finding
from .rules.base import RuleContext, call_name, expr_text, trailing_name


@dataclass
class FlowRuleInfo:
    """Registration record of one interprocedural rule."""

    rule_id: str
    summary: str
    annotation: Optional[str]
    fn: Callable[["Project"], Iterable[Finding]]


#: rule id -> FlowRuleInfo; the CLI merges this with the per-file RULES.
FLOW_RULES: Dict[str, FlowRuleInfo] = {}


def register_flow(rule_id: str, summary: str, annotation: Optional[str] = None):
    def wrap(fn: Callable[["Project"], Iterable[Finding]]):
        FLOW_RULES[rule_id] = FlowRuleInfo(rule_id, summary, annotation, fn)
        return fn
    return wrap


@dataclass
class Project:
    """Whole-program view: every file's RuleContext plus the call graph."""

    contexts: Dict[str, RuleContext]
    graph: CallGraph

    def context(self, path: str) -> Optional[RuleContext]:
        return self.contexts.get(path)

    def annotated(self, path: str, key: str, line: int) -> bool:
        ctx = self.contexts.get(path)
        return ctx.annotated(key, line) if ctx is not None else False

    def fn_annotated(self, fn: FunctionInfo, key: str) -> bool:
        """Annotation on the function's ``def`` line (or an enclosing
        scope) — the form that justifies every path through it."""
        return self.annotated(fn.path, key, fn.lineno)


def build_project(contexts: Dict[str, RuleContext]) -> Project:
    graph = build_callgraph(
        sorted((path, ctx.tree) for path, ctx in contexts.items())
    )
    return Project(contexts=contexts, graph=graph)


def run_flow_rules(
    contexts: Dict[str, RuleContext], rule_ids: Iterable[str]
) -> List[Finding]:
    """Run the named interprocedural rules over one shared project."""
    project = build_project(contexts)
    findings: List[Finding] = []
    for rule_id in rule_ids:
        findings.extend(FLOW_RULES[rule_id].fn(project))
    return findings


# ========================================================== entry points

#: Entry points: the public surfaces a user statement, transaction,
#: deferred refresh, membership change, fault replay, or DDL statement
#: enters the engine through.  ``(class, method)``; ``None`` matches
#: module-level functions.  Fixture trees in the tests use the same
#: names, so seeded violations anchor to the same table.
ENTRY_POINTS: Tuple[Tuple[Optional[str], str], ...] = (
    ("Cluster", "insert"),
    ("Cluster", "delete"),
    ("Cluster", "update"),
    ("Cluster", "add_node"),
    ("Cluster", "remove_node"),
    ("Cluster", "fail_over"),
    ("Cluster", "create_relation"),
    ("Cluster", "create_index"),
    ("Cluster", "create_auxiliary_relation"),
    ("Cluster", "create_global_index"),
    ("Cluster", "create_join_view"),
    ("Cluster", "create_view_from_sql"),
    ("Cluster", "drop_view"),
    ("Cluster", "drop_auxiliary_relation"),
    ("Cluster", "drop_global_index"),
    ("Transaction", "insert"),
    ("Transaction", "delete"),
    ("Transaction", "update"),
    ("Transaction", "rollback"),
    ("Transaction", "__exit__"),
    ("DeferredMaintainer", "refresh"),
    ("DeferredMaintainer", "flush_if_stale"),
    ("FaultController", "replay_pending"),
    ("FaultController", "recover"),
    (None, "add_node"),
    (None, "remove_node"),
    (None, "fail_over"),
    (None, "define_join_view"),
    (None, "define_aggregate_join_view"),
)


def entry_qualnames(graph: CallGraph) -> Set[str]:
    wanted = set(ENTRY_POINTS)
    out: Set[str] = set()
    for qualname, info in graph.functions.items():
        if (info.cls, info.name) in wanted:
            out.add(qualname)
    return out


# ============================================================ path search


def unjustified_path(
    graph: CallGraph,
    entries: Set[str],
    target: str,
    justified: Callable[[str], bool],
    via: Optional[Set[str]] = None,
) -> Optional[List[CallEdge]]:
    """Shortest ``entry → … → target`` call path on which **no** function
    (entry and intermediates alike; the target was already judged at its
    site) satisfies ``justified`` — or ``None`` when every path is
    justified or the target is unreachable.  Reverse BFS in deterministic
    (sorted-caller) order; ``via`` restricts the edge kinds walked."""
    if target not in graph.functions:
        return None
    if target in entries:
        return []
    parents: Dict[str, CallEdge] = {}
    seen: Set[str] = {target}
    frontier = [target]
    while frontier:
        nxt: List[str] = []
        for current in frontier:
            for edge in graph.callers(current):
                if via is not None and edge.via not in via:
                    continue
                caller = edge.caller
                if caller in seen:
                    continue
                seen.add(caller)
                if justified(caller):
                    continue  # every route through it is cleared
                parents[caller] = edge
                if caller in entries:
                    path: List[CallEdge] = []
                    cursor = caller
                    while cursor != target:
                        hop = parents[cursor]
                        path.append(hop)
                        cursor = hop.callee
                    return path
                nxt.append(caller)
        frontier = sorted(nxt)
    return None


def render_path(
    graph: CallGraph, path: List[CallEdge], target: FunctionInfo
) -> str:
    """``Cluster.insert (cluster/cluster.py:582) → … → sink fn`` witness."""
    if not path:
        return target.display()
    parts = [graph.functions[path[0].caller].display()]
    for edge in path:
        info = graph.functions.get(edge.callee)
        parts.append(info.display() if info else edge.callee)
    return " → ".join(parts)


# ===================================================== REP007: charge flow

_SEND_NAMES = {"send", "send_many", "broadcast", "broadcast_many", "send_bytes"}
_NETWORK_WRAPPER = "cluster/network.py"


def _is_wrapper_subclass_send(
    ctx: RuleContext, call: ast.Call
) -> bool:
    """``super().send(...)`` inside a class that subclasses the Network
    wrapper (e.g. the sanitizer's ``SendAccountingNetwork``) *is* the
    wrapper: the delegated call charges inside ``Network`` itself."""
    func = call.func
    if not (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    ):
        return False
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            if node.lineno <= call.lineno <= end and any(
                "Network" in expr_text(base) for base in node.bases
            ):
                return True
    return False


def _charges_send(fn_node: ast.AST) -> bool:
    """Whether the function bills ``Op.SEND`` on a ledger itself — the
    hand-rolled-wrapper pattern that carries the charge for its sends."""
    for call in _own_calls(fn_node):
        if call_name(call) != "charge":
            continue
        for arg in call.args:
            if (
                isinstance(arg, ast.Attribute)
                and arg.attr == "SEND"
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "Op"
            ):
                return True
    return False


@register_flow(
    "REP007",
    "every call path reaching a raw send must carry a SEND charge or a "
    "justified uncharged-mirror annotation",
    annotation="uncharged-mirror",
)
def check_charge_flow(project: Project) -> Iterable[Finding]:
    graph = project.graph
    entries = entry_qualnames(graph)
    findings: List[Finding] = []
    justified_cache: Dict[str, bool] = {}

    def justified(qualname: str) -> bool:
        cached = justified_cache.get(qualname)
        if cached is None:
            info = graph.functions[qualname]
            cached = project.fn_annotated(
                info, "uncharged-mirror"
            ) or _charges_send(info.node)
            justified_cache[qualname] = cached
        return cached

    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        ctx = project.context(fn.path)
        if ctx is None or fn.path == _NETWORK_WRAPPER:
            continue
        for call in _own_calls(fn.node):
            name = call_name(call)
            if name not in _SEND_NAMES or not isinstance(call.func, ast.Attribute):
                continue
            if trailing_name(call.func.value) == "network":
                continue  # the charging wrapper itself
            if _is_wrapper_subclass_send(ctx, call):
                continue  # super() delegation inside a Network subclass
            if ctx.annotated("uncharged-mirror", call.lineno):
                continue
            if _charges_send(fn.node):
                continue  # the enclosing function carries the charge
            path = unjustified_path(graph, entries, qualname, justified)
            if path is None:
                continue  # unreachable from statements, or all paths cleared
            findings.append(
                Finding(
                    rule="REP007",
                    path=fn.path,
                    line=call.lineno,
                    column=call.col_offset,
                    message=(
                        f"raw send '{expr_text(call.func)}(...)' is reachable "
                        "from a statement entry point with no SEND charge and "
                        "no 'uncharged-mirror' annotation anywhere on the "
                        f"path: {render_path(graph, path, fn)}; charge the "
                        "message through the Network wrapper or annotate one "
                        "function on the path with "
                        "'# repro: uncharged-mirror=<reason>'"
                    ),
                )
            )
    return findings


# ================================================== REP009: undo domination

MUTATORS = {
    "insert", "insert_many", "delete", "delete_matching",
    "delete_by_rowid", "restore", "gi_insert", "gi_delete",
}
#: Receiver-text markers of modeled storage (vs. plain dicts/lists).
STORAGE_MARKERS = ("fragment", "gi_partition", "node")
UNDO_MARKERS = ("_record_undo", "record_undo", "_snapshot_queue_undo")
_SCOPE_GUARD = "_check_no_open_scope"


def _is_storage_mutation(node: ast.Call) -> Optional[str]:
    """``receiver.mutator`` when ``node`` writes modeled storage (a
    fragment, node, or GI partition), else ``None``."""
    name = call_name(node)
    if name not in MUTATORS or not isinstance(node.func, ast.Attribute):
        return None
    receiver = expr_text(node.func.value)
    if any(marker in receiver for marker in STORAGE_MARKERS):
        return f"{receiver}.{name}"
    return None


def _touches_undo(fn: ast.AST) -> bool:
    """Whether ``fn`` records an undo action (``_record_undo``,
    ``_snapshot_queue_undo``, or ``record`` on an ``*undo*`` receiver)."""
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


def _calls_scope_guard(fn_node: ast.AST) -> bool:
    """Whether the function refuses to run inside an open undo scope — the
    membership/DDL dominator (``_check_no_open_scope``)."""
    for call in _own_calls(fn_node):
        if call_name(call) == _SCOPE_GUARD:
            return True
    return False


@register_flow(
    "REP009",
    "storage mutations reachable from statement or DDL entry points must "
    "be dominated by undo recording (or a scope guard) on every path",
    annotation="no-undo",
)
def check_undo_domination(project: Project) -> Iterable[Finding]:
    graph = project.graph
    entries = entry_qualnames(graph)
    findings: List[Finding] = []
    safe_cache: Dict[str, bool] = {}

    def safe(qualname: str) -> bool:
        cached = safe_cache.get(qualname)
        if cached is None:
            info = graph.functions[qualname]
            cached = (
                project.fn_annotated(info, "no-undo")
                or _touches_undo(info.node)
                or _calls_scope_guard(info.node)
            )
            safe_cache[qualname] = cached
        return cached

    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        ctx = project.context(fn.path)
        if ctx is None:
            continue
        fn_is_safe: Optional[bool] = None
        for call in _own_calls(fn.node):
            site = _is_storage_mutation(call)
            if site is None:
                continue
            if ctx.annotated("no-undo", call.lineno):
                continue
            if fn_is_safe is None:
                fn_is_safe = safe(qualname)
            if fn_is_safe:
                continue  # the mutating function records undo itself
            path = unjustified_path(
                graph, entries, qualname, safe, via={"direct", "self"}
            )
            if path is None:
                continue  # dominated (or not statement-reachable)
            findings.append(
                Finding(
                    rule="REP009",
                    path=fn.path,
                    line=call.lineno,
                    column=call.col_offset,
                    message=(
                        f"storage mutation '{site}(...)' is reachable from a "
                        "statement entry point with no undo recording, scope "
                        "guard, or 'no-undo' annotation on the path: "
                        f"{render_path(graph, path, fn)}; rollback along that "
                        "path would restore base relations but not this "
                        "state — record an undo action on the path or "
                        "annotate '# repro: no-undo=<why rollback can never "
                        "see this>'"
                    ),
                )
            )
    return findings


# REP008 lives in .taint (the summary-based dataflow engine is big enough
# to deserve its own module); importing it registers the rule.
from . import taint as _taint  # noqa: E402  (registration side effect)

_ = _taint
