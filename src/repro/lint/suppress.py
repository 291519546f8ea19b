"""Inline suppression directives with mandatory reasons.

Syntax (trailing on the offending line, or as a standalone comment on
the line directly above it)::

    for name in set(names):  # repro-lint: disable=RL202 -- order-free membership count
    # repro-lint: disable=RL201,RL202 -- replaying a recorded trace
    statement_on_next_line()

The reason after ``--`` is required: a suppression is a deliberate,
documented exception, not an off switch.  Directives with no (or an
empty) reason are reported as :data:`RL001` and do **not** silence
anything; unknown rule ids are :data:`RL002`; directives that matched
no finding are :data:`RL003` (stale suppressions rot into false
documentation).  Meta diagnostics themselves cannot be suppressed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.lint.diagnostics import ERROR, WARNING, Diagnostic
from repro.lint.registry import is_registered, meta_rule

RL000 = meta_rule(
    "RL000", "parse-error", ERROR,
    "file could not be parsed; nothing else was checked").id
RL001 = meta_rule(
    "RL001", "invalid-suppression", ERROR,
    "suppression directive is malformed or missing the required "
    "'-- reason'").id
RL002 = meta_rule(
    "RL002", "unknown-rule-in-suppression", WARNING,
    "suppression names a rule id that does not exist").id
RL003 = meta_rule(
    "RL003", "unused-suppression", WARNING,
    "suppression matched no finding; delete it or fix the reason "
    "it was added").id

_DIRECTIVE_RE = re.compile(r"#\s*repro-lint:")
_PARSE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)"
    r"(?:\s+--\s+(.*\S))?\s*$")

#: Meta rules may not be suppressed (a suppression problem silencing
#: its own report would be unfixable).
_UNSUPPRESSIBLE = frozenset({RL000, RL001, RL002, RL003})


@dataclass
class Directive:
    """One parsed ``disable=`` comment."""

    line: int          # line the directive applies to
    comment_line: int  # line the comment physically sits on
    rules: tuple
    reason: str
    used: set = field(default_factory=set)


class Suppressions:
    """Per-file directive table with usage tracking."""

    def __init__(self, directives, meta_diagnostics):
        self._by_line = {}
        for directive in directives:
            self._by_line.setdefault(directive.line, []).append(directive)
        self.meta_diagnostics = list(meta_diagnostics)
        self._path = None

    def suppresses(self, diagnostic: Diagnostic) -> bool:
        """True (and marks the directive used) if a valid directive
        covers this finding's rule on this finding's line."""
        if diagnostic.rule in _UNSUPPRESSIBLE:
            return False
        for directive in self._by_line.get(diagnostic.line, ()):
            if diagnostic.rule in directive.rules:
                directive.used.add(diagnostic.rule)
                return True
        return False

    def unused(self, path: str):
        """RL003 diagnostics for directives that silenced nothing."""
        for directives in self._by_line.values():
            for directive in directives:
                for rule_id in directive.rules:
                    if rule_id in directive.used:
                        continue
                    if not is_registered(rule_id):
                        continue  # already reported as RL002
                    yield Diagnostic(
                        file=path, line=directive.comment_line, col=0,
                        rule=RL003, severity=WARNING,
                        message=f"suppression of {rule_id} matched no "
                                f"finding on line {directive.line}; "
                                f"delete the stale directive")


def parse_suppressions(comments: dict, lines: list,
                       path: str) -> Suppressions:
    """Build the directive table from a ``{line: comment}`` map.

    ``comments`` maps 1-based line numbers to the comment token text
    on that line (from :func:`repro.lint.engine.collect_comments`);
    ``lines`` is the source split into lines, used to decide whether a
    directive is trailing (applies to its own line) or standalone
    (applies to the next line).
    """
    directives = []
    meta = []
    for line_number in sorted(comments):
        comment = comments[line_number]
        if not _DIRECTIVE_RE.search(comment):
            continue
        match = _PARSE_RE.search(comment)
        if not match:
            meta.append(Diagnostic(
                file=path, line=line_number, col=0, rule=RL001,
                severity=ERROR,
                message="malformed repro-lint directive; expected "
                        "'# repro-lint: disable=RL### -- reason'"))
            continue
        rule_ids = tuple(part.strip() for part in
                         match.group(1).split(",") if part.strip())
        reason = (match.group(2) or "").strip()
        if not rule_ids:
            meta.append(Diagnostic(
                file=path, line=line_number, col=0, rule=RL001,
                severity=ERROR,
                message="repro-lint directive disables no rules"))
            continue
        if not reason:
            meta.append(Diagnostic(
                file=path, line=line_number, col=0, rule=RL001,
                severity=ERROR,
                message=f"suppression of {', '.join(rule_ids)} has no "
                        f"reason; write '-- <why this exception is "
                        f"deliberate>' (the directive is ignored "
                        f"until it does)"))
            continue
        for rule_id in rule_ids:
            if not is_registered(rule_id):
                meta.append(Diagnostic(
                    file=path, line=line_number, col=0, rule=RL002,
                    severity=WARNING,
                    message=f"suppression names unknown rule "
                            f"{rule_id!r}"))
        source_line = lines[line_number - 1] if \
            line_number <= len(lines) else ""
        standalone = source_line.lstrip().startswith("#")
        target = line_number + 1 if standalone else line_number
        directives.append(Directive(
            line=target, comment_line=line_number, rules=rule_ids,
            reason=reason))
    return Suppressions(directives, meta)
