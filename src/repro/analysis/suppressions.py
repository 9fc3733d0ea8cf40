"""Suppression comments and rule annotations.

Two comment forms, both introduced by ``# repro:``:

* ``# repro: noqa=REP007`` (or a comma list) — silence the named rules on
  that physical line only.  Blanket ``# repro: noqa`` without rule ids is
  deliberately **not** supported: suppressions must name what they hide.

* ``# repro: <key>=<justification>`` — a *domain annotation*.  Each rule
  documents the annotation key it honours (``uncharged-mirror`` for
  REP007, ``wall-clock`` for REP002 and REP008, ``obs-guarded`` for
  REP003, ``no-undo`` for REP009).  An annotation on
  a ``def``/``class`` line covers the whole body — used where one
  justification explains many sites — and **must carry a non-empty
  justification** after the ``=``; an empty one is itself reported.

Comments are read with :mod:`tokenize`, so strings containing ``# repro:``
never register as suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

#: Annotation keys with the rules that honour them (documented in DESIGN.md).
KNOWN_ANNOTATIONS = {
    "uncharged-mirror": "REP007",
    "wall-clock": "REP002",
    "obs-guarded": "REP003",
    "no-undo": "REP009",
}

_COMMENT = re.compile(r"#\s*repro:\s*(?P<body>.+)$")
_RULE_ID = re.compile(r"^REP\d{3}$")


@dataclass
class Suppressions:
    """Per-file suppression state, queried by the engine and the rules."""

    #: line -> rule ids silenced by ``noqa=`` on that line
    noqa: Dict[int, Set[str]] = field(default_factory=dict)
    #: line -> {annotation key: justification}
    annotations: Dict[int, Dict[str, str]] = field(default_factory=dict)
    #: malformed suppression comments: (line, message)
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: ``(line, rule)`` noqa entries that suppressed a finding this run —
    #: the audit's liveness signal (see ``--audit-suppressions``)
    used_noqa: Set[Tuple[int, str]] = field(default_factory=set)
    #: ``(line, key)`` annotations a rule consulted (and matched) this run
    used_annotations: Set[Tuple[int, str]] = field(default_factory=set)

    def is_noqa(self, rule: str, line: int) -> bool:
        hit = rule in self.noqa.get(line, set())
        if hit:
            self.used_noqa.add((line, rule))
        return hit

    def annotation_on(self, key: str, line: int) -> bool:
        hit = key in self.annotations.get(line, {})
        if hit:
            self.used_annotations.add((line, key))
        return hit


def parse_suppressions(source: str) -> Suppressions:
    """Extract every ``# repro:`` comment from ``source``."""
    out = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The engine reports the parse failure separately; no suppressions.
        return out
    for line, text in comments:
        match = _COMMENT.search(text)
        if match is None:
            continue
        body = match.group("body").strip()
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "noqa":
            rules = {r.strip() for r in value.split(",") if r.strip()}
            bad = [r for r in rules if not _RULE_ID.match(r)]
            if not rules or bad:
                out.errors.append(
                    (line, "noqa must list rule ids, e.g. '# repro: noqa=REP007'")
                )
                continue
            out.noqa.setdefault(line, set()).update(rules)
        elif key in KNOWN_ANNOTATIONS:
            if not value:
                out.errors.append(
                    (line, f"annotation {key!r} needs a justification after '='")
                )
                continue
            out.annotations.setdefault(line, {})[key] = value
        else:
            out.errors.append((line, f"unknown repro comment {key!r}"))
    return out
