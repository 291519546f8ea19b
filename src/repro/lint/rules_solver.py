"""Solver-backend confinement rules (RL7xx).

The backend seam (:mod:`repro.solver.backends`) is the only place an
iterative linear solver is allowed to run, because it is the only
place that *certifies* one: every iterative solution is checked
against the explicit row-scaled residual ``‖R(Ax − b)‖ ≤ tol·‖Rb‖``
with an LU fallback on non-convergence, and the solve is counted
under a bounded backend label.  Today the seam's only iteration is
the chord, which needs no scipy solver.  No tolerance is part of a
cache key, so a scipy iterative solver sprinkled anywhere else would
store results of an uncertified tolerance class under a direct-solve
key — the exact aliasing the identity layer exists to prevent.

- **RL701**: ``scipy.sparse.linalg``'s iterative solvers
  (:data:`repro.lint.contracts.ITERATIVE_SOLVER_NAMES`) may be
  imported or called only inside
  :data:`repro.lint.contracts.ITERATIVE_SOLVER_HOME_MODULES`.
"""

from __future__ import annotations

import ast

from repro.lint.contracts import (
    ITERATIVE_SOLVER_HOME_MODULES,
    ITERATIVE_SOLVER_NAMES,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import call_qual
from repro.lint.registry import file_rule, get_rule

_SPARSE_LINALG = "scipy.sparse.linalg"
_ITERATIVE_QUALS = frozenset(
    f"{_SPARSE_LINALG}.{name}" for name in ITERATIVE_SOLVER_NAMES)


def _iterative_imports(tree):
    """Yield ``(node, name)`` for every iterative-solver from-import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module == _SPARSE_LINALG:
            for alias in node.names:
                if alias.name in ITERATIVE_SOLVER_NAMES:
                    yield node, alias.name


@file_rule(
    "RL701", "iterative-solver-confinement",
    "scipy's iterative solvers may only be used inside the certified "
    "backend seam (repro.solver.backends)",
    scope=lambda module: module not in ITERATIVE_SOLVER_HOME_MODULES)
def check_iterative_solver_confinement(ctx):
    rule = get_rule("RL701")
    for node, name in _iterative_imports(ctx.tree):
        yield Diagnostic(
            file=ctx.path, line=node.lineno, col=node.col_offset,
            rule=rule.id,
            message=f"import of {_SPARSE_LINALG}.{name} outside the "
                    f"backend seam; iterative solves must go through "
                    f"repro.solver.backends, where the residual is "
                    f"certified and the tolerance is cache-keyed")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            qual = call_qual(ctx, node)
            if qual in _ITERATIVE_QUALS:
                yield Diagnostic(
                    file=ctx.path, line=node.lineno,
                    col=node.col_offset,
                    rule=rule.id,
                    message=f"call to {qual}() outside the backend "
                            f"seam; iterative solves must go through "
                            f"repro.solver.backends, where the "
                            f"residual is certified and the tolerance "
                            f"is cache-keyed")
