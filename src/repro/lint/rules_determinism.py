"""Determinism rules (RL2xx).

The solver's contract is bitwise reproducibility: same spec, same
surrogate, on any machine, any core count, any day.  Ambient entropy —
wall clocks, process-global RNG state, urandom — breaks that silently,
usually months later when two "identical" builds stop comparing equal.
Wall-clock time has exactly one sanctioned job here: stamping the
``created_at``/``last_used`` provenance fields, which are documented
as non-identity metadata (see :data:`repro.lint.contracts.TIMESTAMP_FIELDS`).
"""

from __future__ import annotations

import ast

from repro.lint.contracts import (
    CLOCK_EXEMPT_MODULES,
    LEGACY_NP_RANDOM,
    NONDETERMINISTIC_CALLS,
    TIMESTAMP_FIELDS,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ancestors, call_qual
from repro.lint.registry import file_rule, get_rule

_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "enumerate"})


def _timestamp_slot_names(target):
    """Names a value lands in, for allowlist matching."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, ast.Subscript) \
            and isinstance(target.slice, ast.Constant):
        yield target.slice.value
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _timestamp_slot_names(element)


def _in_timestamp_slot(node) -> bool:
    """True when the call's value flows into a declared stamp field.

    Covers ``created_at = ... time.time()``, ``d["last_used"] = ...``
    and ``f(created_at=time.time())`` — the allowlisted provenance
    stamping sites.  Anything else (loop seeds, tolerances, file
    names) is a determinism leak.
    """
    for parent in ancestors(node):
        if isinstance(parent, ast.keyword) \
                and parent.arg in TIMESTAMP_FIELDS:
            return True
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                if TIMESTAMP_FIELDS.intersection(
                        _timestamp_slot_names(target)):
                    return True
        if isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
            if TIMESTAMP_FIELDS.intersection(
                    _timestamp_slot_names(parent.target)):
                return True
        if isinstance(parent, ast.stmt):
            # Statement boundary: no enclosing slot can claim it.
            return False
    return False


def _forbidden(qual: str):
    """Reason string when ``qual`` is a nondeterministic entry point."""
    if qual is None:
        return None
    if qual in NONDETERMINISTIC_CALLS:
        return f"{qual}() reads ambient state"
    if qual.startswith("random.") or qual == "random":
        return ("the stdlib 'random' module is process-global state; "
                "derive a np.random.default_rng(seed) stream instead")
    for prefix in ("numpy.random.", "np.random."):
        if qual.startswith(prefix) \
                and qual[len(prefix):] in LEGACY_NP_RANDOM:
            return (f"legacy module-level numpy RNG ({qual}) mutates "
                    f"global state; use np.random.default_rng(seed) / "
                    f"SeedSequence.spawn")
    return None


@file_rule(
    "RL201", "nondeterministic-call",
    "wall clocks, urandom or global RNG state inside identity/solver "
    "paths (only created_at/last_used stamping is allowlisted)")
def check_nondeterministic_call(ctx):
    rule = get_rule("RL201")
    if ctx.module in CLOCK_EXEMPT_MODULES:
        # The tracer and event log exist to read the clock; RL601
        # separately guarantees neither can reach an identity form.
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        reason = _forbidden(call_qual(ctx, node))
        if reason is None:
            continue
        if _in_timestamp_slot(node):
            continue
        yield Diagnostic(
            file=ctx.path, line=node.lineno, col=node.col_offset,
            rule=rule.id,
            message=f"nondeterministic call: {reason}; identical "
                    f"builds must be bitwise-identical (wall-clock "
                    f"is allowed only when stamping "
                    f"{sorted(TIMESTAMP_FIELDS)})")


def _is_set_construct(node) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Name) \
        and node.func.id in ("set", "frozenset")


def _iter_sources(tree):
    """(iterable-expression, anchor-node) pairs of every iteration."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter, node


@file_rule(
    "RL202", "unordered-set-iteration",
    "iterating a set construct feeds hash-order into ordered output; "
    "wrap it in sorted()")
def check_unordered_set_iteration(ctx):
    rule = get_rule("RL202")
    seen = set()

    def flag(node):
        key = (node.lineno, node.col_offset)
        if key in seen:
            return
        seen.add(key)
        yield Diagnostic(
            file=ctx.path, line=node.lineno, col=node.col_offset,
            rule=rule.id,
            message="iteration over a set follows hash order, which "
                    "is not stable across processes (PYTHONHASHSEED) "
                    "or value provenance; wrap the set in sorted() "
                    "before it feeds ordered output")

    for iterable, _ in _iter_sources(ctx.tree):
        if _is_set_construct(iterable):
            yield from flag(iterable)
        # enumerate(set(...)) in a for-loop header
        if isinstance(iterable, ast.Call) \
                and isinstance(iterable.func, ast.Name) \
                and iterable.func.id in _ORDER_SENSITIVE_WRAPPERS \
                and iterable.args \
                and _is_set_construct(iterable.args[0]):
            yield from flag(iterable.args[0])
    # list(set(...)) / tuple(set(...)) anywhere: materializes hash
    # order into a sequence.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_SENSITIVE_WRAPPERS \
                and node.args and _is_set_construct(node.args[0]):
            yield from flag(node.args[0])
