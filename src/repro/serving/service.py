"""JSON request/response front-end — the scriptable service surface.

A *request* asks for statistics on one surrogate::

    {"spec": {"preset": "table2", "params": {...}},
     "queries": [{"kind": "mean"}, {"kind": "quantiles", "q": [0.5]}]}

A *batch* is ``{"requests": [...]}`` — arbitrarily many surrogates
(different structures, variants, frequencies) answered in one call
against one store, building on miss unless the caller forbids it.
``python -m repro build`` and ``python -m repro query`` are thin CLI
wrappers over these functions, so anything that can write a JSON file
can drive the system as a service.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError, ServingError
from repro.serving.pipeline import ensure_surrogate, load_surrogate
from repro.serving.query import QueryEngine
from repro.serving.spec import ProblemSpec
from repro.serving.store import SurrogateStore

#: Default on-disk store location; override per call or with the CLI's
#: ``--store`` flag.
DEFAULT_STORE_PATH = "~/.cache/repro/surrogates"


def open_store(path=None) -> SurrogateStore:
    """Open (creating if needed) the store at ``path`` or the default."""
    return SurrogateStore(path or DEFAULT_STORE_PATH)


def parse_request(data: dict) -> tuple:
    """Validate one request dict -> (ProblemSpec, queries list)."""
    if not isinstance(data, dict):
        raise ServingError(
            f"request must be a mapping, got {type(data).__name__}")
    unknown = set(data) - {"spec", "queries"}
    if unknown:
        raise ServingError(f"unknown request fields {sorted(unknown)}")
    if "spec" not in data:
        raise ServingError("request is missing its spec")
    spec = ProblemSpec.from_dict(data["spec"])
    queries = data.get("queries") or []
    if not isinstance(queries, list):
        raise ServingError("queries must be a list")
    return spec, queries


def serve_request(request: dict, store: SurrogateStore,
                  build_missing: bool = True, ensure=None) -> dict:
    """Answer one request; builds the surrogate on a miss by default.

    ``ensure`` overrides the acquisition step: a callable
    ``ensure(spec) -> BuildReport`` that replaces both the
    build-on-miss and the read-only path — the daemon hands in its
    single-flight wrapper here, so concurrent misses coalesce.
    """
    spec, queries = parse_request(request)
    if ensure is not None:
        report = ensure(spec)
    elif build_missing:
        report = ensure_surrogate(spec, store)
    else:
        report = load_surrogate(spec, store)
    record = report.record
    engine = QueryEngine(record)
    return {
        "cache_key": record.cache_key,
        "preset": spec.preset,
        "built": report.built,
        "num_solves": report.num_solves,
        "adaptive": record.refinement is not None,
        "basis": record.pce.basis.describe(),
        "output_names": record.output_names,
        "answers": [engine.answer(query) for query in queries],
    }


def serve_batch(batch: dict, store: SurrogateStore,
                build_missing: bool = True, ensure=None) -> dict:
    """Answer a multi-surrogate batch in one call.

    Parameters
    ----------
    batch : dict
        Either ``{"requests": [...]}`` — arbitrarily many surrogates
        (different structures, variants, frequencies) against one
        store — or a single bare request.
    store : SurrogateStore
        The persistent store consulted (and, on misses, populated).
    build_missing : bool, default True
        Build on a cache miss; ``False`` turns misses into per-request
        errors instead (read-only serving).
    ensure : callable, optional
        ``ensure(spec) -> BuildReport`` surrogate-acquisition
        override, passed through to every request (the daemon's
        single-flight hook).

    Returns
    -------
    dict
        ``{"responses": [...]}`` aligned with the requests.
        Per-request failures are reported in place (``"error"``
        entries) instead of aborting the rest of the batch.
    """
    if isinstance(batch, dict) and "requests" in batch:
        unknown = set(batch) - {"requests"}
        if unknown:
            raise ServingError(f"unknown batch fields {sorted(unknown)}")
        requests = batch["requests"]
        if not isinstance(requests, list):
            raise ServingError("requests must be a list")
    else:
        requests = [batch]
    responses = []
    for request in requests:
        try:
            responses.append(serve_request(
                request, store, build_missing=build_missing,
                ensure=ensure))
        except ReproError as exc:
            # Any library error — bad spec, unbuildable structure,
            # failed solve — fails this request only, not the batch.
            responses.append({"error": str(exc)})
    return {"responses": responses}


def load_request_file(path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ServingError(
            f"cannot read request file {path}: {exc}") from exc
    except ValueError as exc:
        raise ServingError(
            f"request file {path} is not JSON: {exc}") from exc
