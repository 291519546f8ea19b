"""Canonical-hash rule (RL1xx).

The store's headline guarantee — one surrogate per cache key,
bitwise-stable across processes — holds only while every hash-fed
``json.dumps`` sorts its keys (RL103).  Execution-only settings are
kept out of identity forms at runtime: spec and adaptive validation
reject them, and ``tests/test_serving.py`` pins the reference cache
keys.
"""

from __future__ import annotations

import ast
import re

from repro.lint.contracts import HASH_CONSTRUCTORS
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import call_qual
from repro.lint.registry import file_rule, get_rule

_HASHY_NAME_RE = re.compile(r"canonical|cache_key|_hash|hash_|hashed")


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
            rule=rule.id,
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
