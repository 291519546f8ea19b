"""Identity/execution separation and canonical-hash rules (RL1xx).

The store's headline guarantee — one surrogate per cache key,
bitwise-stable across processes and core counts — holds only while
(a) execution-only knobs never leak into identity forms and (b) every
hash-fed ``json.dumps`` sorts its keys.  These two rules machine-check
the conventions PRs 2/4/5 established by hand.
"""

from __future__ import annotations

import ast
import re

from repro.lint.contracts import (
    EXECUTION_ONLY_FIELDS,
    HASH_CONSTRUCTORS,
    IDENTITY_FUNCTIONS,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import call_qual
from repro.lint.registry import file_rule, get_rule

_HASHY_NAME_RE = re.compile(r"canonical|cache_key|_hash|hash_|hashed")


def _identity_functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in IDENTITY_FUNCTIONS:
            yield node


@file_rule(
    "RL101", "execution-field-in-identity",
    "an execution-only field (workers, warm_start, ...) is written "
    "into a canonical()/to_dict() identity form")
def check_execution_field_in_identity(ctx):
    """Flag execution-only fields *added* to an identity dict."""
    rule = get_rule("RL101")
    for func in _identity_functions(ctx.tree):
        for node in ast.walk(func):
            hits = []
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) \
                            and key.value in EXECUTION_ONLY_FIELDS:
                        hits.append((key, key.value))
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) \
                        and node.func.id == "dict":
                    for keyword in node.keywords:
                        if keyword.arg in EXECUTION_ONLY_FIELDS:
                            hits.append((keyword.value, keyword.arg))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.slice, ast.Constant) \
                            and target.slice.value \
                            in EXECUTION_ONLY_FIELDS:
                        hits.append((target, target.slice.value))
            for hit, field in hits:
                yield Diagnostic(
                    file=ctx.path, line=hit.lineno, col=hit.col_offset,
                    rule=rule.id, severity=rule.severity,
                    message=f"execution-only field {field!r} is "
                            f"written into identity form "
                            f"{func.name}(); it would split the "
                            f"cache key across "
                            f"{EXECUTION_ONLY_FIELDS[field]} — pass "
                            f"it to the build call instead")


def _dumps_calls(ctx, root):
    for node in ast.walk(root):
        if isinstance(node, ast.Call) and call_qual(ctx, node) in (
                "json.dumps", "json.dump"):
            yield node


def _has_sort_keys(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "sort_keys":
            return isinstance(keyword.value, ast.Constant) \
                and keyword.value.value is True
    return False


@file_rule(
    "RL103", "unsorted-hash-json",
    "json.dumps feeding a hash (or inside a canonical/cache-key "
    "function) lacks sort_keys=True")
def check_unsorted_hash_json(ctx):
    """Hash inputs must be canonical: dict order is arbitrary."""
    rule = get_rule("RL103")
    flagged = set()

    def flag(call):
        key = (call.lineno, call.col_offset)
        if key in flagged or _has_sort_keys(call):
            return
        flagged.add(key)
        yield Diagnostic(
            file=ctx.path, line=call.lineno, col=call.col_offset,
            rule=rule.id, severity=rule.severity,
            message="json.dumps feeding a hash/identity path must "
                    "pass sort_keys=True: dict insertion order is an "
                    "accident of construction, and two processes "
                    "building the same spec would hash to different "
                    "cache keys")

    # Case 1: dumps nested directly inside a hash constructor call.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) \
                and call_qual(ctx, node) in HASH_CONSTRUCTORS:
            for arg in [*node.args,
                        *[kw.value for kw in node.keywords]]:
                for call in _dumps_calls(ctx, arg):
                    yield from flag(call)
    # Case 2: any dumps inside a function that hashes or whose name
    # marks it as a canonical/cache-key producer.
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        hashy = _HASHY_NAME_RE.search(node.name) is not None
        if not hashy:
            hashy = any(isinstance(inner, ast.Call)
                        and call_qual(ctx, inner) in HASH_CONSTRUCTORS
                        for inner in ast.walk(node))
        if not hashy:
            continue
        for call in _dumps_calls(ctx, node):
            yield from flag(call)
