"""Metrics registry: named counters, gauges and latency histograms.

One process-wide vocabulary for every number the serving stack already
counts by hand — store hits, single-flight coalesces, warm-start
outcomes, GC evictions, factorization reuse.  Three metric kinds, all
stdlib-only and thread-safe:

* :class:`Counter` — monotonically increasing totals,
* :class:`Gauge` — last-write-wins instantaneous values,
* :class:`Histogram` — fixed-bucket latency distributions.

Metrics live in a :class:`MetricsRegistry`.  The module-level
:data:`REGISTRY` is the process-global default used by library code
(solver, pipeline, GC); the daemon additionally keeps a per-instance
registry so one process can host several daemons without cross-talk.

Snapshots are **deterministic**: metrics sorted by name, label sets
sorted by their rendered form, so the same totals always produce the
same snapshot (and the same Prometheus text) regardless of increment
interleaving.  ``repro.obs`` is execution-only by construction —
nothing here may be imported from identity code (``canonical()`` /
cache-key paths); RL601 enforces that contract.
"""

from __future__ import annotations

import re
import threading

#: Default latency buckets (seconds) for request/build histograms:
#: sub-millisecond store hits up to minute-scale cold builds.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set: sorted (name, value)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: name/help validation, per-series storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, registry) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self._registry = registry
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}

    def _enabled(self) -> bool:
        return self._registry is None or self._registry.enabled

    @staticmethod
    def _check_labels(labels: dict) -> None:
        for key in labels:
            if not _LABEL_RE.match(str(key)):
                raise ValueError(f"invalid label name {key!r}")

    def _zero(self):
        raise NotImplementedError

    def _series_for(self, labels: dict):
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                self._check_labels(labels)
                series = self._series[key] = self._zero()
            return series


class Counter(_Metric):
    """Monotonically increasing total, optionally labelled."""

    kind = "counter"

    def _zero(self):
        return [0.0]

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if not self._enabled():
            return
        if amount < 0:
            raise ValueError("counters only go up")
        cell = self._series_for(labels)
        with self._lock:
            cell[0] += amount

    def value(self, **labels) -> float:
        """Current total of one label series (0.0 if never touched)."""
        with self._lock:
            cell = self._series.get(_label_key(labels))
            return cell[0] if cell is not None else 0.0

    def total(self) -> float:
        """Sum across every label series."""
        with self._lock:
            return sum(cell[0] for cell in self._series.values())

    def snapshot(self) -> dict:
        """Deterministic JSON-ready form (sorted label series)."""
        with self._lock:
            samples = [
                {"labels": dict(key), "value": cell[0]}
                for key, cell in sorted(self._series.items())
            ]
        return {"name": self.name, "type": self.kind,
                "help": self.help_text, "samples": samples}


class Gauge(_Metric):
    """Instantaneous value: set/inc/dec, last write wins."""

    kind = "gauge"

    def _zero(self):
        return [0.0]

    def set(self, value: float, **labels) -> None:
        """Overwrite the series selected by ``labels``."""
        if not self._enabled():
            return
        cell = self._series_for(labels)
        with self._lock:
            cell[0] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative) to the series."""
        if not self._enabled():
            return
        cell = self._series_for(labels)
        with self._lock:
            cell[0] += amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        """Subtract ``amount`` from the series."""
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        """Current value of one label series (0.0 if never touched)."""
        with self._lock:
            cell = self._series.get(_label_key(labels))
            return cell[0] if cell is not None else 0.0

    def snapshot(self) -> dict:
        """Deterministic JSON-ready form (sorted label series)."""
        with self._lock:
            samples = [
                {"labels": dict(key), "value": cell[0]}
                for key, cell in sorted(self._series.items())
            ]
        return {"name": self.name, "type": self.kind,
                "help": self.help_text, "samples": samples}


class Histogram(_Metric):
    """Fixed-bucket distribution of observations (latencies, sizes).

    Buckets are upper bounds in ascending order; an implicit ``+Inf``
    bucket catches the overflow.  The snapshot carries *cumulative*
    bucket counts (Prometheus convention) plus ``sum`` and ``count``.
    """

    kind = "histogram"

    def __init__(self, name, help_text, registry,
                 buckets=DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must strictly increase")
        self.buckets = bounds

    def _zero(self):
        # per-bucket counts + overflow, then sum, then count
        return {"counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the series selected by ``labels``."""
        if not self._enabled():
            return
        cell = self._series_for(labels)
        value = float(value)
        position = len(self.buckets)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                position = index
                break
        with self._lock:
            cell["counts"][position] += 1
            cell["sum"] += value
            cell["count"] += 1

    def snapshot(self) -> dict:
        """Deterministic form with cumulative counts per series."""
        with self._lock:
            samples = []
            for key, cell in sorted(self._series.items()):
                cumulative, running = [], 0
                for count in cell["counts"]:
                    running += count
                    cumulative.append(running)
                samples.append({"labels": dict(key),
                                "cumulative": cumulative,
                                "sum": cell["sum"],
                                "count": cell["count"]})
        return {"name": self.name, "type": self.kind,
                "help": self.help_text,
                "buckets": list(self.buckets), "samples": samples}


class MetricsRegistry:
    """Thread-safe collection of named metrics.

    ``counter``/``gauge``/``histogram`` create-or-return by name
    (re-registration with a conflicting kind is an error), so
    instrumentation points scattered across modules can share series
    without import-order coupling.  ``enabled=False`` (or
    :meth:`disable`) turns every increment into a no-op — the knob the
    zero-overhead benchmark flips.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self.enabled = bool(enabled)

    def enable(self) -> None:
        """Resume recording increments and observations."""
        self.enabled = True

    def disable(self) -> None:
        """Drop every subsequent increment/observation (cheaply)."""
        self.enabled = False

    def _register(self, name, help_text, factory, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {kind}")
                return metric
            metric = self._metrics[name] = factory()
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Create or fetch the counter called ``name``."""
        return self._register(
            name, help_text,
            lambda: Counter(name, help_text, self), "counter")

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Create or fetch the gauge called ``name``."""
        return self._register(
            name, help_text,
            lambda: Gauge(name, help_text, self), "gauge")

    def histogram(self, name: str, help_text: str = "",
                  buckets=DEFAULT_LATENCY_BUCKETS) -> Histogram:
        """Create or fetch the histogram called ``name``."""
        return self._register(
            name, help_text,
            lambda: Histogram(name, help_text, self, buckets),
            "histogram")

    def snapshot(self) -> list:
        """Deterministic list of per-metric snapshots, sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return [metric.snapshot() for _, metric in metrics]


#: Process-global default registry used by library instrumentation
#: (solver counters, pipeline build metrics, GC evictions).
REGISTRY = MetricsRegistry()


def counter(name: str, help_text: str = "") -> Counter:
    """Create or fetch a counter in the global :data:`REGISTRY`."""
    return REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    """Create or fetch a gauge in the global :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help_text)


def histogram(name: str, help_text: str = "",
              buckets=DEFAULT_LATENCY_BUCKETS) -> Histogram:
    """Create or fetch a histogram in the global :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help_text, buckets)
