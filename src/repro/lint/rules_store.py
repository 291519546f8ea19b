"""Store-atomicity rules (RL3xx).

Every persistent byte under the store layer goes through the
unique-tmp+rename helper (``SurrogateStore._atomic_write``): a bare
``open(path, "w")`` that dies mid-write leaves a torn file that reads
as corruption at best and as silently wrong statistics at worst.  The
family patrols ``repro.serving``, ``repro.daemon`` and
``repro.campaign`` — the pipeline, service, daemon, gc and catalog
layers must hand bytes to the store, never touch disk themselves
(RL301).  The helpers named in
:data:`repro.lint.contracts.RAW_FILE_HELPERS` are the exceptions.
"""

from __future__ import annotations

import ast

from repro.lint.contracts import RAW_FILE_HELPERS, STORE_LAYER_PREFIXES
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import call_qual, dotted_name, enclosing_functions
from repro.lint.registry import file_rule, get_rule

_WRITE_MODE_CHARS = set("wax+")
_PATH_WRITER_ATTRS = ("write_text", "write_bytes")
_COPY_CALLS = frozenset({
    "shutil.copy", "shutil.copy2", "shutil.copyfile", "shutil.move",
})
_NP_SAVERS = frozenset({
    "numpy.save", "numpy.savez", "numpy.savez_compressed",
    "np.save", "np.savez", "np.savez_compressed",
})
_STDOUT_STREAMS = frozenset({"sys.stdout", "sys.stderr"})


def _in_raw_file_helper(node) -> bool:
    return any(
        any(marker in func.name for marker in RAW_FILE_HELPERS)
        for func in enclosing_functions(node))


def _write_mode(call: ast.Call):
    """The mode argument of an ``open``-family call, if any.

    Returns the mode string, ``None`` when the call is read-only
    (no mode argument), or ``"?"`` when the mode is not a literal —
    which the rule treats as a write, conservatively.
    """
    mode = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "?"


def _is_store_scope(module) -> bool:
    return bool(module) and module.startswith(STORE_LAYER_PREFIXES)


@file_rule(
    "RL301", "nonatomic-store-write",
    "a file write under the store/serving layer bypasses the "
    "unique-tmp+rename atomic helper",
    scope=_is_store_scope)
def check_nonatomic_store_write(ctx):
    rule = get_rule("RL301")

    def flag(node, what):
        return Diagnostic(
            file=ctx.path, line=node.lineno, col=node.col_offset,
            rule=rule.id,
            message=f"{what} bypasses the atomic unique-tmp+rename "
                    f"helper; a crash mid-write leaves a torn store "
                    f"entry (route the bytes through "
                    f"SurrogateStore._atomic_write)")

    bytesio_names = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and isinstance(node.value,
                                                       ast.Call):
            if call_qual(ctx, node.value) in ("io.BytesIO",
                                              "io.StringIO"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bytesio_names.add(target.id)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if _in_raw_file_helper(node):
            continue
        qual = call_qual(ctx, node)
        func = node.func

        if qual in ("open", "io.open", "os.fdopen") or (
                isinstance(func, ast.Attribute) and func.attr == "open"):
            mode = _write_mode(node)
            if mode is not None and (mode == "?"
                                     or _WRITE_MODE_CHARS & set(mode)):
                yield flag(node, f"open(..., {mode!r})"
                           if mode != "?" else
                           "open(...) with a non-literal mode")
        elif isinstance(func, ast.Attribute) \
                and func.attr in _PATH_WRITER_ATTRS:
            yield flag(node, f".{func.attr}(...)")
        elif qual in _COPY_CALLS:
            yield flag(node, f"{qual}(...)")
        elif qual in _NP_SAVERS:
            first = node.args[0] if node.args else None
            if isinstance(first, ast.Name) \
                    and first.id in bytesio_names:
                continue  # serializing into memory, not onto disk
            yield flag(node, f"{qual}(...) writing straight to disk")
        elif qual == "json.dump":
            stream = node.args[1] if len(node.args) >= 2 else None
            if dotted_name(stream) in _STDOUT_STREAMS:
                continue
            yield flag(node, "json.dump(...) onto a file handle")
