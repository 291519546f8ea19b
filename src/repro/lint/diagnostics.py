"""Diagnostic records and output formatting for :mod:`repro.lint`.

A :class:`Diagnostic` is one finding: file, 1-based line, 0-based
column, rule id and a human message.  Text output is the familiar
``path:line:col: RULE: message`` shape (one finding per line, stable
sort).  Every finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    message: str


def format_text(diagnostics) -> str:
    """Human-readable report, one ``path:line:col`` finding per line."""
    lines = [f"{d.file}:{d.line}:{d.col}: {d.rule}: {d.message}"
             for d in sorted(diagnostics)]
    if lines:
        lines.append(f"found {len(lines)} finding(s)")
    return "\n".join(lines)
