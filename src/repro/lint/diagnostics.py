"""Diagnostic records and output formatting for :mod:`repro.lint`.

A :class:`Diagnostic` is one finding: file, 1-based line, 0-based
column, rule id, severity and a human message.  Text output is the
familiar ``path:line:col: RULE severity: message`` shape (one finding
per line, stable sort).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Findings with this severity fail the lint run (exit code 1).
ERROR = "error"
#: Reported, but the run still exits 0.
WARNING = "warning"

SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding, anchored to a file position.

    The field order (file, line, col, rule) doubles as the sort
    order, so reports are deterministic regardless of rule execution
    order.
    """

    file: str
    line: int
    col: int
    rule: str
    severity: str
    message: str


def counts(diagnostics) -> dict:
    """``{"error": n, "warning": m}`` tally of a diagnostic list."""
    tally = {ERROR: 0, WARNING: 0}
    for diagnostic in diagnostics:
        tally[diagnostic.severity] = tally.get(diagnostic.severity, 0) + 1
    return tally


def format_text(diagnostics) -> str:
    """Human-readable report, one ``path:line:col`` finding per line."""
    lines = [
        f"{d.file}:{d.line}:{d.col}: {d.rule} {d.severity}: {d.message}"
        for d in sorted(diagnostics)
    ]
    tally = counts(diagnostics)
    if lines:
        lines.append(
            f"found {tally[ERROR]} error(s), {tally[WARNING]} warning(s)")
    return "\n".join(lines)
