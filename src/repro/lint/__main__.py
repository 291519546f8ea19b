"""CLI for :mod:`repro.lint`.

Usage::

    python -m repro.lint [paths ...]    # default: src/repro
    python -m repro.lint --list-rules

Exit codes: 0 clean, 1 on any finding, 2 on usage errors or
unreadable paths.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint import all_rules, format_text
from repro.lint.engine import lint_paths


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        kind = "meta" if rule.check is None else "file"
        lines.append(f"{rule.id}  {kind:4}  {rule.name}: "
                     f"{rule.description}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker: determinism, "
                    "canonical hashing, store atomicity, the "
                    "observability firewall and solver-backend "
                    "confinement (see docs/LINT.md)")
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files and/or directories to lint "
             "(default: src/repro)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    diagnostics = lint_paths(args.paths)
    if diagnostics:
        print(format_text(diagnostics))
    else:
        print("repro.lint: clean")
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
