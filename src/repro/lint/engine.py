"""Parsing and rule-execution engine for :mod:`repro.lint`.

One :class:`FileContext` per file: source, AST (with parent links)
and import-alias table.  :func:`run` executes every registered rule
per context and reports a file that does not parse as :data:`RL000`.
Comments are not read: an exception to a rule is an entry in
:mod:`repro.lint.contracts`, never a comment at the call site.

Everything here is stdlib-only on purpose: the CI lint job runs
``python -m repro.lint`` without installing the scientific stack.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import all_rules, meta_rule

RL000 = meta_rule(
    "RL000", "parse-error",
    "file could not be parsed; nothing else was checked").id

# ----------------------------------------------------------------------
# AST helpers shared by the rule modules


def attach_parents(tree: ast.AST) -> None:
    """Give every node a ``.parent`` link (the engine does this once)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node


def ancestors(node: ast.AST):
    """Yield parents from the node outward to the module."""
    while True:
        node = getattr(node, "parent", None)
        if node is None:
            return
        yield node


def dotted_name(node: ast.AST):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def collect_import_aliases(tree: ast.Module) -> dict:
    """Map of local name to the fully-qualified name it binds.

    ``import numpy as np`` gives ``{"np": "numpy"}``; ``from datetime
    import datetime`` gives ``{"datetime": "datetime.datetime"}``.
    Used to expand call qualnames before matching them against the
    contract tables, so ``import time as _t; _t.time()`` cannot dodge
    the determinism family.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def expand_qual(ctx: "FileContext", qual: str):
    """Expand a dotted name's first segment through the import table."""
    if qual is None:
        return None
    head, _, rest = qual.partition(".")
    target = ctx.import_aliases.get(head)
    if target is None:
        return qual
    return f"{target}.{rest}" if rest else target


def call_qual(ctx: "FileContext", call: ast.Call):
    """Fully-expanded dotted name of a call's target, or ``None``."""
    return expand_qual(ctx, dotted_name(call.func))


def enclosing_functions(node: ast.AST) -> list:
    """Innermost-first list of enclosing function definitions."""
    return [parent for parent in ancestors(node)
            if isinstance(parent, (ast.FunctionDef,
                                   ast.AsyncFunctionDef))]


# ----------------------------------------------------------------------


class FileContext:
    """Everything the rules need to know about one parsed file."""

    def __init__(self, source: str, path: str, module: str = None):
        self.source = source
        self.path = path
        self.module = module
        self.parse_error = None
        try:
            self.tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError) as exc:
            self.tree = ast.Module(body=[], type_ignores=[])
            self.parse_error = Diagnostic(
                file=path, line=getattr(exc, "lineno", 1) or 1, col=0,
                rule=RL000, message=f"could not parse file: {exc}")
        attach_parents(self.tree)
        self.import_aliases = collect_import_aliases(self.tree)


def derive_module(path) -> str:
    """Dotted module name for a file path, if it sits under ``repro``.

    ``src/repro/serving/store.py`` maps to ``repro.serving.store`` and
    package ``__init__.py`` files map to the package itself; files
    outside a ``repro`` tree get ``None`` (scoped rules then skip
    them, everything else still runs).
    """
    parts = list(Path(path).parts)
    if "repro" not in parts:
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[start:]
    if tail[-1] == "__init__.py":
        tail = tail[:-1]
    elif tail[-1].endswith(".py"):
        tail[-1] = tail[-1][:-3]
    return ".".join(tail)


def run(contexts: list) -> list:
    """Run every registered rule over the parsed contexts."""
    diagnostics = []
    for ctx in contexts:
        if ctx.parse_error is not None:
            diagnostics.append(ctx.parse_error)
            continue
        for rule in all_rules():
            if rule.check is None:
                continue
            if rule.scope is not None and not rule.scope(ctx.module):
                continue
            diagnostics.extend(rule.check(ctx))
    return sorted(diagnostics)


def lint_source(source: str, path: str = "<snippet>",
                module: str = None) -> list:
    """Lint one in-memory source blob (the fixture-test entry point)."""
    if module is None:
        module = derive_module(path)
    return run([FileContext(source, path, module)])


def lint_files(paths) -> list:
    """Lint an explicit list of files."""
    contexts = []
    for path in paths:
        source = Path(path).read_text(encoding="utf-8")
        contexts.append(FileContext(source, str(path),
                                    derive_module(path)))
    return run(contexts)


def iter_python_files(paths):
    """Expand files/directories into a sorted, deduplicated file list."""
    seen = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            seen.extend(sorted(path.rglob("*.py")))
        else:
            seen.append(path)
    unique = []
    for path in seen:
        if path not in unique:
            unique.append(path)
    return unique


def lint_paths(paths) -> list:
    """Lint files and/or directory trees (the CLI entry point)."""
    return lint_files(iter_python_files(paths))
