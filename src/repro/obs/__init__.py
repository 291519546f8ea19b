"""repro.obs — unified tracing, metrics and profiling layer.

One execution-only observability vocabulary from the solver kernels up
to the daemon's ``/metrics`` endpoint (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — named counters, gauges and fixed-bucket
  latency histograms with deterministic snapshots; the process-global
  :data:`REGISTRY` absorbs the ad-hoc counters previously scattered
  across the store, daemon, GC and solver layers.
* :mod:`repro.obs.trace` — hierarchical span tracer (context-manager
  API, monotonic clocks, thread-local activation) feeding
  ``repro build --profile`` Chrome trace output.
* :mod:`repro.obs.export` — Prometheus text exposition writer plus the
  small validating parser CI uses against ``GET /metrics``.
* :mod:`repro.obs.profile` — Chrome trace-event JSON export and the
  span-coverage acceptance metric.
* :mod:`repro.obs.log` — structured JSONL event log backing the
  daemon's ``--access-log``.

The package is stdlib-only and **execution-only by construction**:
RL601 (``repro.lint``) keeps every ``repro.obs`` import out of
``canonical()``/cache-key paths, so instrumentation can never change a
cache key or a stored artifact.  Exports resolve lazily (PEP 562),
mirroring :mod:`repro.daemon`.
"""

from __future__ import annotations

import importlib

#: Lazy export table: public name -> defining module.  ``__all__`` is
#: derived from it and ``tests/test_docs.py`` checks every entry
#: resolves.
_EXPORTS = {
    "MetricsRegistry": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "REGISTRY": "repro.obs.metrics",
    "counter": "repro.obs.metrics",
    "gauge": "repro.obs.metrics",
    "histogram": "repro.obs.metrics",
    "DEFAULT_LATENCY_BUCKETS": "repro.obs.metrics",
    "Span": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "NULL_TRACER": "repro.obs.trace",
    "get_tracer": "repro.obs.trace",
    "activate": "repro.obs.trace",
    "span": "repro.obs.trace",
    "prometheus_text": "repro.obs.export",
    "parse_prometheus": "repro.obs.export",
    "chrome_trace_events": "repro.obs.profile",
    "chrome_trace_document": "repro.obs.profile",
    "write_chrome_trace": "repro.obs.profile",
    "span_coverage": "repro.obs.profile",
    "find_root": "repro.obs.profile",
    "EventLog": "repro.obs.log",
    "read_events": "repro.obs.log",
}

__all__ = [*_EXPORTS]


def __getattr__(name: str):
    """Resolve a public name through the lazy export table (PEP 562)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    """Advertise lazy exports alongside whatever already resolved."""
    return sorted(set(globals()) | set(_EXPORTS))
