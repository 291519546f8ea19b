"""Observability firewall rules (RL6xx).

``repro.obs`` is execution-only by contract: counters, spans and logs
describe how a build *ran*, never what it *is*.  The moment a metric
or a span attribute flows into ``canonical()`` / ``cache_key()``,
instrumentation starts splitting cache keys — the exact failure mode
the identity/execution separation exists to prevent.  This family
fences the package off mechanically:

- **RL601**: a declared identity module
  (:data:`repro.lint.contracts.IDENTITY_MODULES`) must not import
  ``repro.obs`` at all, at any level.
- **RL602**: no module may *use* ``repro.obs`` — a call, a name bound
  from it, or a late import — inside a function named in
  :data:`repro.lint.contracts.IDENTITY_FUNCTIONS`.

Together with the RL201 clock exemption being confined to
:data:`repro.lint.contracts.CLOCK_EXEMPT_MODULES`, these keep the
tracer's wall clocks strictly on the execution side of the firewall.
"""

from __future__ import annotations

import ast

from repro.lint.contracts import (
    IDENTITY_FUNCTIONS,
    IDENTITY_MODULES,
    OBS_PACKAGE,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import call_qual, enclosing_functions
from repro.lint.registry import file_rule, get_rule


def _is_obs(qual) -> bool:
    """True when a dotted name lives under the observability package."""
    return qual is not None and (
        qual == OBS_PACKAGE or qual.startswith(OBS_PACKAGE + "."))


def _obs_imports(tree):
    """Yield ``(node, imported_name)`` for every obs import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_obs(alias.name):
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if _is_obs(node.module):
                yield node, node.module


@file_rule(
    "RL601", "obs-in-identity-module",
    "identity modules (canonical forms feeding cache keys) must not "
    "import the execution-only observability package",
    scope=lambda module: module in IDENTITY_MODULES)
def check_obs_in_identity_module(ctx):
    rule = get_rule("RL601")
    for node, imported in _obs_imports(ctx.tree):
        yield Diagnostic(
            file=ctx.path, line=node.lineno, col=node.col_offset,
            rule=rule.id,
            message=f"identity module {ctx.module} imports {imported}; "
                    f"{OBS_PACKAGE} is execution-only and must stay "
                    f"out of modules that define cache-key identity")


def _obs_local_names(ctx):
    """Local names this file binds to anything under ``repro.obs``."""
    return frozenset(
        local for local, target in ctx.import_aliases.items()
        if _is_obs(target))


def _in_identity_function(node):
    """The enclosing identity-form function's name, or ``None``."""
    for function in enclosing_functions(node):
        if function.name in IDENTITY_FUNCTIONS:
            return function.name
    return None


@file_rule(
    "RL602", "obs-in-identity-function",
    "identity-form functions (canonical/to_dict/cache_key) must not "
    "touch the observability package")
def check_obs_in_identity_function(ctx):
    rule = get_rule("RL602")
    obs_names = _obs_local_names(ctx)

    def flag(node, what):
        function = _in_identity_function(node)
        if function is None:
            return
        yield Diagnostic(
            file=ctx.path, line=node.lineno, col=node.col_offset,
            rule=rule.id,
            message=f"{what} inside {function}(); identity forms feed "
                    f"cache keys, and {OBS_PACKAGE} is execution-only "
                    f"— instrument the call site, not the identity")

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_obs(alias.name):
                    yield from flag(node, f"import of {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _is_obs(node.module):
            yield from flag(node, f"import of {node.module}")
        elif isinstance(node, ast.Call):
            qual = call_qual(ctx, node)
            if _is_obs(qual):
                yield from flag(node, f"call to {qual}()")
        elif isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Load) \
                and node.id in obs_names:
            # Skip the callee of a Call — already flagged above with
            # the richer qualified name.
            parent = getattr(node, "parent", None)
            if isinstance(parent, ast.Call) and parent.func is node:
                continue
            if isinstance(parent, ast.Attribute):
                grand = getattr(parent, "parent", None)
                if isinstance(grand, ast.Call) and grand.func is parent:
                    continue
            yield from flag(node, f"use of {node.id} (bound from "
                                  f"{ctx.import_aliases[node.id]})")
