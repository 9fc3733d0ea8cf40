"""The rule registry.

Importing this package registers every built-in rule.  ``RULES`` maps rule
id to :class:`RuleInfo`; the engine iterates it in id order so reports are
stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from ..findings import Finding
from .base import RuleContext

RuleFn = Callable[[RuleContext], Iterable[Finding]]


@dataclass(frozen=True)
class RuleInfo:
    rule_id: str
    summary: str
    annotation: str  # the annotation key this rule honours ("" if none)
    fn: RuleFn


RULES: Dict[str, RuleInfo] = {}


def register(rule_id: str, summary: str, annotation: str = "") -> Callable[[RuleFn], RuleFn]:
    """Decorator registering a rule function under ``rule_id``."""

    def decorate(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = RuleInfo(rule_id, summary, annotation, fn)
        return fn

    return decorate


def rule_ids() -> List[str]:
    return sorted(RULES)


# Built-in rules register themselves on import.
from . import rep002_determinism  # noqa: E402,F401
from . import rep003_obs_purity  # noqa: E402,F401
from . import rep005_envelopes  # noqa: E402,F401
