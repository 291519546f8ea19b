"""Surrogate store & query serving — build once, answer forever.

The paper's core economics: a fitted quadratic Hermite chaos is a
near-free statistical stand-in for the expensive coupled solver.  This
package turns that into a service: specs identify surrogates
(:mod:`~repro.serving.spec`), a content-addressed store persists them
(:mod:`~repro.serving.store`), ``ensure_surrogate`` builds on miss
(:mod:`~repro.serving.pipeline`), a vectorized engine answers
statistical queries (:mod:`~repro.serving.query`), and a JSON
request/response layer plus the ``repro build|query`` CLI make the
whole thing scriptable (:mod:`~repro.serving.service`).
"""

from repro.serving.spec import ProblemSpec, SPEC_VERSION
from repro.serving.presets import (
    Preset,
    get_preset,
    list_presets,
)
from repro.serving.store import (
    SCHEMA_VERSION,
    SurrogateRecord,
    SurrogateStore,
)
from repro.serving.pipeline import (
    BuildReport,
    build_surrogate,
    ensure_surrogate,
)
from repro.serving.query import QueryEngine
from repro.serving.service import (
    DEFAULT_STORE_PATH,
    open_store,
    serve_batch,
    serve_request,
)

__all__ = [
    "ProblemSpec",
    "SPEC_VERSION",
    "Preset",
    "get_preset",
    "list_presets",
    "SCHEMA_VERSION",
    "SurrogateRecord",
    "SurrogateStore",
    "BuildReport",
    "build_surrogate",
    "ensure_surrogate",
    "QueryEngine",
    "DEFAULT_STORE_PATH",
    "open_store",
    "serve_batch",
    "serve_request",
]
