"""Tests of repro.obs — metrics, tracing, exposition, and the firewall.

The observability layer's contracts, each exercised where it can
actually break:

* **deterministic metrics** — concurrent increments land exactly and
  snapshots render identically regardless of interleaving;
* **valid exposition** — ``prometheus_text`` output survives the
  validating parser (escaping, bucket monotonicity, ``+Inf`` vs
  ``_count``), and the parser really rejects malformed text;
* **faithful traces** — span trees parent correctly across threads
  and the process-pool boundary, and a profiled build's root span is
  covered >= 95% by its children;
* **identity firewall** — instrumentation (tracer active, registry on
  or off) never changes a cache key or a stored artifact, byte for
  byte.
"""

import json
import math
import os
import threading
import time

import pytest

from repro.experiments import table1_spec
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    EventLog,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    activate,
    chrome_trace_document,
    find_root,
    get_tracer,
    parse_prometheus,
    prometheus_text,
    read_events,
    span,
    span_coverage,
)
from repro.serving import SurrogateStore, ensure_surrogate
from repro.solver.avsolver import AC_BATCH

from test_daemon import TINY_PARAMS, tiny_spec


class TestMetricsRegistry:
    def test_counter_counts_per_label_series(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "store hits")
        hits.inc()
        hits.inc(2.0, endpoint="/query")
        assert hits.value() == 1.0
        assert hits.value(endpoint="/query") == 2.0
        assert hits.total() == 3.0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_register_is_create_or_fetch(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok").inc(**{"bad-label": 1.0})
        with pytest.raises(ValueError):
            registry.gauge("g").set(1.0, **{"0bad": "x"})

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.inc(2.0)
        gauge.dec(1.0)
        assert gauge.value() == 5.0

    def test_histogram_buckets_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(2.0, 1.0))

    def test_histogram_cumulative_snapshot(self):
        hist = MetricsRegistry().histogram(
            "h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        sample = hist.snapshot()["samples"][0]
        assert sample["cumulative"] == [1, 3, 4, 5]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(5.605)

    def test_boundary_lands_in_its_bucket(self):
        # Prometheus convention: le is inclusive.
        hist = MetricsRegistry().histogram("h", buckets=(0.01, 0.1))
        hist.observe(0.01)
        assert hist.snapshot()["samples"][0]["cumulative"] == [1, 1, 1]

    def test_disable_drops_everything(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h")
        registry.disable()
        counter.inc()
        hist.observe(1.0)
        registry.enable()
        counter.inc()
        assert counter.total() == 1.0
        assert hist.snapshot()["samples"] == []

    def test_concurrent_increments_are_exact_and_deterministic(self):
        threads, per_thread = 8, 2000
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "racy counter")
        hist = registry.histogram("h_seconds", buckets=(0.5, 1.5))

        def worker(index):
            for step in range(per_thread):
                counter.inc(endpoint="/query" if step % 2 else "/store")
                hist.observe(float(index % 2))

        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert counter.total() == threads * per_thread
        assert counter.value(endpoint="/query") \
            == threads * per_thread / 2

        # The rendered exposition must match a serially-built registry
        # with the same totals — interleaving must leave no trace.
        serial = MetricsRegistry()
        reference = serial.counter("c_total", "racy counter")
        reference.inc(threads * per_thread / 2, endpoint="/store")
        reference.inc(threads * per_thread / 2, endpoint="/query")
        ref_hist = serial.histogram("h_seconds", buckets=(0.5, 1.5))
        for _ in range(threads * per_thread // 2):
            ref_hist.observe(0.0)
            ref_hist.observe(1.0)
        assert prometheus_text(registry.snapshot()) \
            == prometheus_text(serial.snapshot())


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "store hits").inc(3)
        registry.gauge("repro_uptime_seconds", "uptime").set(12.5)
        hist = registry.histogram("repro_latency_seconds", "latency",
                                  buckets=(0.01, 0.1))
        hist.observe(0.005)
        hist.observe(0.05)
        hist.observe(2.0)
        return registry

    def test_round_trip_through_the_parser(self):
        text = prometheus_text(self._registry().snapshot())
        parsed = parse_prometheus(text)
        assert parsed["repro_hits_total"]["type"] == "counter"
        assert parsed["repro_hits_total"]["samples"][
            ("repro_hits_total", ())] == 3.0
        assert parsed["repro_uptime_seconds"]["samples"][
            ("repro_uptime_seconds", ())] == 12.5
        latency = parse_prometheus(text)["repro_latency_seconds"]
        samples = latency["samples"]
        assert samples[("repro_latency_seconds_count", ())] == 3.0
        assert samples[("repro_latency_seconds_bucket",
                        (("le", "+Inf"),))] == 3.0
        assert samples[("repro_latency_seconds_bucket",
                        (("le", "0.01"),))] == 1.0

    def test_help_and_type_precede_samples(self):
        text = prometheus_text(self._registry().snapshot())
        lines = text.splitlines()
        first = lines.index("# HELP repro_hits_total store hits")
        assert lines[first + 1] == "# TYPE repro_hits_total counter"
        assert lines[first + 2] == "repro_hits_total 3"

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        hostile = 'quote " slash \\ newline \n done'
        counter.inc(7, path=hostile)
        text = prometheus_text(registry.snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parsed = parse_prometheus(text)
        (key, labels), = parsed["c_total"]["samples"]
        assert dict(labels)["path"] == hostile
        assert parsed["c_total"]["samples"][(key, labels)] == 7.0

    def test_help_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "line one\nline \\ two").inc()
        parsed = parse_prometheus(prometheus_text(registry.snapshot()))
        assert parsed["c_total"]["help"] == "line one\nline \\ two"

    def test_integer_values_render_bare(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        text = prometheus_text(registry.snapshot())
        assert "c_total 2\n" in text
        assert "2.0" not in text

    def test_output_is_deterministic(self):
        assert prometheus_text(self._registry().snapshot()) \
            == prometheus_text(self._registry().snapshot())

    def test_parser_rejects_sample_before_type(self):
        with pytest.raises(ValueError, match="before its # TYPE"):
            parse_prometheus("c_total 3\n# TYPE c_total counter\n")

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("# TYPE c counter\nc{oops 3\n")
        with pytest.raises(ValueError, match="unknown TYPE"):
            parse_prometheus("# TYPE c sideways\n")

    def test_parser_rejects_non_monotonic_buckets(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                'h_bucket{le="1"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 1\nh_count 5\n")
        with pytest.raises(ValueError, match="not monotonic"):
            parse_prometheus(text)

    def test_parser_rejects_inf_count_disagreement(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 3\n'
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1\nh_count 4\n")
        with pytest.raises(ValueError, match="disagrees"):
            parse_prometheus(text)

    def test_parser_requires_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 3\n'
                "h_sum 1\nh_count 3\n")
        with pytest.raises(ValueError, match="missing a \\+Inf"):
            parse_prometheus(text)


class TestTracer:
    def test_spans_nest_by_parent_id(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id
        assert {node.name for node in tracer.spans} \
            == {"outer", "inner", "sibling"}
        assert all(node.end >= node.start for node in tracer.spans)

    def test_module_helper_targets_the_active_tracer(self):
        tracer = Tracer()
        assert get_tracer() is NULL_TRACER
        with activate(tracer):
            assert get_tracer() is tracer
            with span("work"):
                pass
        assert get_tracer() is NULL_TRACER
        assert [node.name for node in tracer.spans] == ["work"]

    def test_null_tracer_records_nothing(self):
        with span("ignored") as node:
            node.attrs["x"] = 1  # the null span tolerates writes
        assert NULL_TRACER.totals() == {}
        assert NULL_TRACER.current_span() is None

    def test_activation_is_thread_local(self):
        tracer = Tracer()
        seen = {}

        def other_thread():
            seen["tracer"] = get_tracer()

        with activate(tracer):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        assert seen["tracer"] is NULL_TRACER

    def test_totals_respects_the_subtree_root(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("leaf"):
                time.sleep(0.002)
        with tracer.span("b"):
            with tracer.span("leaf"):
                time.sleep(0.002)
        subtree = tracer.totals(root=a.span_id)
        assert set(subtree) == {"a", "leaf"}
        assert subtree["leaf"] < tracer.totals()["leaf"]

    def test_add_span_ingests_foreign_windows(self):
        tracer = Tracer()
        node = tracer.add_span("worker", 1.0, 3.5, parent_id=None,
                               pid=4242, tid=7, attrs={"points": 3})
        assert node.duration == 2.5
        assert node.pid == 4242
        assert tracer.totals()["worker"] == 2.5

    def test_chrome_trace_document_shape(self):
        tracer = Tracer()
        with tracer.span("outer", points=3):
            with tracer.span("inner"):
                pass
        document = chrome_trace_document(tracer)
        events = document["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" for event in events)
        assert all(event["ts"] >= 0.0 for event in events)
        by_name = {event["name"]: event for event in events}
        assert by_name["inner"]["args"]["parent_id"] \
            == by_name["outer"]["args"]["span_id"]
        assert by_name["outer"]["args"]["points"] == 3
        json.dumps(document)  # must be serializable as-is

    def test_span_coverage_merges_overlapping_children(self):
        tracer = Tracer()
        root = tracer.add_span("root", 0.0, 10.0)
        tracer.add_span("a", 0.0, 6.0, parent_id=root.span_id)
        tracer.add_span("b", 4.0, 8.0, parent_id=root.span_id)
        # Overlap [4, 6] counts once: covered = [0, 8] of [0, 10].
        assert span_coverage(tracer, root=root) \
            == pytest.approx(0.8)
        assert find_root(tracer, "root") is root


class TestPoolSpans:
    def test_worker_spans_cross_the_pool_boundary(self):
        """Per-worker spans are ingested under the parallel_wave span
        with the worker's own pid — real lanes in the Chrome trace."""
        from test_parallel_adaptive import _builder

        from repro.analysis import run_sscm_analysis

        tracer = Tracer()
        with activate(tracer):
            # d=2: the smallest grid whose one wave (17 points) holds
            # the two full AC blocks a split needs.
            run_sscm_analysis(_builder(), energy=1.0,
                              max_variables_by_group={"doping": 2},
                              workers=2, problem_builder=_builder)
        waves = [node for node in tracer.spans
                 if node.name == "parallel_wave"]
        workers = [node for node in tracer.spans
                   if node.name == "worker_chunk"]
        assert waves and workers
        wave_ids = {node.span_id for node in waves}
        for worker in workers:
            assert worker.parent_id in wave_ids
            assert worker.duration > 0.0
            assert worker.pid != os.getpid()
        assert sum(node.attrs["points"] for node in workers) \
            == sum(node.attrs["points"] for node in waves)


def pooled_spec():
    """A spec whose one wave (17 points, d=2) splits over two workers."""
    return table1_spec("doping",
                       reduction={"caps": {"doping": 2}, "energy": 1.0},
                       **TINY_PARAMS)


@pytest.fixture()
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host: default builds then pool
    (the conftest pins BLAS to one thread)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestBuildInstrumentation:
    def test_profiled_build_covers_the_wall(self, tmp_path, two_cpus):
        """>= 95% of the build root span is covered by child spans —
        the acceptance bar for the span taxonomy staying honest — for
        a serial build and a pooled one."""
        for name, spec in (("serial", tiny_spec()),
                           ("pooled", pooled_spec())):
            tracer = Tracer()
            with activate(tracer):
                report = ensure_surrogate(spec,
                                          SurrogateStore(tmp_path / name))
            assert report.built
            pooled = any(node.name == "parallel_wave"
                         for node in tracer.spans)
            assert pooled == (name == "pooled")
            root = find_root(tracer, "build")
            assert root is not None
            assert span_coverage(tracer, root=root) >= 0.95

    def test_build_traces_its_lockstep_chord_blocks(self, tmp_path,
                                                    two_cpus):
        """Every collocation sample solves its AC system inside one
        ``chord_batch`` span of at most ``AC_BATCH`` samples, in the
        building process or in a pool worker."""
        for name, spec in (("serial", tiny_spec()),
                           ("pooled", pooled_spec())):
            tracer = Tracer()
            with activate(tracer):
                report = ensure_surrogate(spec,
                                          SurrogateStore(tmp_path / name))
            blocks = [node for node in tracer.spans
                      if node.name == "chord_batch"]
            assert sum(node.attrs["samples"] for node in blocks) \
                == report.record.num_runs
            for block in blocks:
                assert 1 <= block.attrs["samples"] <= AC_BATCH
                assert block.attrs["columns"] == block.attrs["samples"]
                assert block.attrs["steps"] >= 1
            workers = {node.pid for node in blocks} - {os.getpid()}
            assert bool(workers) == (name == "pooled")

    def test_pooled_build_counts_what_a_serial_build_counts(
            self, tmp_path, two_cpus):
        """A pool worker reports the counters it moved, and the parent
        adds them: a default-pooled build moves every counter by what
        a serial build moves it, except the lockstep AC chord steps
        and the back-substitutions they make, which follow how the
        samples fall into blocks."""
        from repro.obs.metrics import REGISTRY
        from repro.solver.avsolver import NOMINAL_SLOT

        def build(name, workers):
            NOMINAL_SLOT.clear()
            before = REGISTRY.counter_values()
            tracer = Tracer()
            with activate(tracer):
                report = ensure_surrogate(
                    pooled_spec(), SurrogateStore(tmp_path / name),
                    workers=workers)
            assert report.built
            after = REGISTRY.counter_values()
            moved = {key: value - before.get(key, 0.0)
                     for key, value in after.items()
                     if value != before.get(key, 0.0)}
            waves = [node for node in tracer.spans
                     if node.name == "parallel_wave"]
            return moved, waves

        serial, serial_waves = build("serial", 1)
        pooled, pooled_waves = build("pooled", None)
        assert not serial_waves
        assert pooled_waves
        assert all(node.attrs["points"] >= 2 * AC_BATCH
                   for node in pooled_waves)
        blocked = {("repro_solver_ac_chord_steps_total", ()),
                   ("repro_solver_solves_total", ())}
        assert {key: value for key, value in serial.items()
                if key not in blocked} \
            == {key: value for key, value in pooled.items()
                if key not in blocked}
        # One back-substitution per lockstep step: the two move alike.
        steps, solves = sorted(blocked)
        assert pooled[steps] - serial[steps] \
            == pooled[solves] - serial[solves]

    def test_cold_build_reports_timings_warm_hit_does_not(self,
                                                          tmp_path):
        store = SurrogateStore(tmp_path / "s")
        cold = ensure_surrogate(tiny_spec(), store)
        assert set(cold.timings) == {"total_s", "solve_s", "fit_s",
                                     "store_write_s"}
        assert 0.0 < cold.timings["solve_s"] < cold.timings["total_s"]
        warm = ensure_surrogate(tiny_spec(), store)
        assert warm.timings is None

    def test_instrumentation_never_changes_the_artifact(self, tmp_path):
        """Cache key, npz payload and sidecar digest are byte-identical
        whether a build runs plain, under an active tracer, or with
        the metrics registry disabled."""
        from repro.obs.metrics import REGISTRY

        spec = tiny_spec()
        key = spec.cache_key()

        def build(name, tracing=False, metrics=True):
            store = SurrogateStore(tmp_path / name)
            tracer = Tracer() if tracing else NULL_TRACER
            if not metrics:
                REGISTRY.disable()
            try:
                with activate(tracer):
                    report = ensure_surrogate(spec, store)
            finally:
                REGISTRY.enable()
            assert report.built
            assert report.record.cache_key == key
            npz = (store.root / f"{key}.npz").read_bytes()
            sidecar = json.loads(
                (store.root / f"{key}.json").read_text())
            return npz, sidecar

        plain_npz, plain_sidecar = build("plain")
        traced_npz, traced_sidecar = build("traced", tracing=True)
        dark_npz, dark_sidecar = build("dark", metrics=False)

        assert traced_npz == plain_npz == dark_npz
        for sidecar in (traced_sidecar, dark_sidecar):
            assert sidecar["npz_sha256"] == plain_sidecar["npz_sha256"]
            assert sidecar["spec"] == plain_sidecar["spec"]


class TestEventLog:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with EventLog(path) as log:
            first = log.write("request", method="GET", path="/health",
                              status=200)
            log.write("request", method="POST", path="/query",
                      status=200, duration_s=0.25)
        events = read_events(path)
        assert [event["event"] for event in events] == ["request"] * 2
        assert events[0]["method"] == "GET"
        assert events[1]["duration_s"] == 0.25
        assert first["ts"] <= events[1]["ts"]

    def test_lines_are_sorted_compact_json(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with EventLog(path) as log:
            log.write("request", zebra=1, alpha=2)
        line = path.read_text().strip()
        assert line.index('"alpha"') < line.index('"zebra"')
        assert ": " not in line

    def test_opens_lazily_and_closes_idempotently(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = EventLog(path)
        assert not path.exists()
        log.close()  # closing an unopened log is fine
        log.write("request")
        assert path.exists()
        log.close()
        log.close()


class TestDefaultBuckets:
    def test_default_buckets_strictly_increase(self):
        buckets = list(DEFAULT_LATENCY_BUCKETS)
        assert buckets == sorted(set(buckets))
        assert buckets[0] <= 0.001
        assert buckets[-1] >= 60.0
        assert math.inf not in buckets
