"""The always-on surrogate service: JSON over HTTP, stdlib only.

``repro serve`` wraps the batch front-end
(:func:`~repro.serving.service.serve_batch`) in a
:class:`http.server.ThreadingHTTPServer`, so clients stop paying
process startup per query and concurrent misses stop paying duplicate
builds:

* every build-on-miss routes through an in-process
  :class:`~repro.daemon.singleflight.SingleFlight` table (K concurrent
  misses on one spec -> one solve campaign) on top of the
  cross-process advisory lock ``ensure_surrogate`` already takes;
* the store is opened with its in-process sidecar index
  (:mod:`~repro.daemon.index`), so a hit never scans the store and
  listings and warm-start lookups re-read only changed sidecars;
* per-request isolation is inherited from ``serve_batch``: a bad spec
  or a failed solve errors that request, never the batch, and an
  unexpected exception errors that HTTP request, never the server.

Endpoints (all JSON except ``/metrics``):

==============  ==============  ======================================
method          path            answer
==============  ==============  ======================================
GET             /health         liveness: status, uptime, store path,
                                entry count
GET             /stats          request/build/coalesce/hit/error
                                counters plus per-endpoint latency
                                histograms
GET             /store          the store inventory (cached listing)
GET             /campaign       campaign catalog summaries
                                (:func:`repro.campaign.list_catalogs`)
GET             /campaign/<id>  one full campaign catalog document
GET             /metrics        Prometheus text exposition (counters,
                                gauges and latency histograms from
                                this daemon merged with the
                                process-global ``repro.obs`` registry)
POST            /query          a serve_batch request/batch document
POST            /shutdown       graceful stop (responds, then stops
                                accepting)
==============  ==============  ======================================

Observability: counters live in a per-instance
:class:`~repro.obs.metrics.MetricsRegistry` (so embedded daemons never
share counts), every request is timed into a per-endpoint latency
histogram, and request completions are routed through a structured
JSONL event log (``--access-log``) and the ``repro.daemon`` logger —
never ``BaseHTTPRequestHandler``'s bare stderr writes.  ``--quiet``
silences the per-request logger lines; the event log still records.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.campaign.catalog import list_catalogs, read_catalog
from repro.errors import CampaignError, ReproError, ServingError
from repro.daemon.index import IndexedSurrogateStore, count_entries
from repro.daemon.singleflight import SingleFlight
from repro.obs.export import prometheus_text
from repro.obs.log import EventLog
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.serving.pipeline import BuildReport, ensure_surrogate
from repro.serving.pipeline import load_surrogate
from repro.serving.service import DEFAULT_STORE_PATH, serve_batch

logger = logging.getLogger("repro.daemon")

#: Largest accepted request body; a query document is small, and a
#: bound here keeps a misbehaving client from ballooning the process.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Routes the daemon answers; anything else is labelled "other" in the
#: per-endpoint metrics so label cardinality stays bounded no matter
#: what paths clients probe.
KNOWN_ENDPOINTS = ("/campaign", "/health", "/metrics", "/query",
                   "/shutdown", "/stats", "/store")


class ReproDaemon:
    """One serving process: store + index + single-flight + HTTP.

    Parameters
    ----------
    store_path : str or pathlib.Path, optional
        Store directory (default: the CLI's default store), opened
        as an :class:`~repro.daemon.index.IndexedSurrogateStore`.
    host, port : str, int
        Bind address.  ``port=0`` picks an ephemeral port (tests);
        the bound address is available as :attr:`address`.
    build_missing : bool, default True
        Build surrogates on cache misses.  ``False`` serves read-only:
        misses become per-request errors and zero solves ever run.
    access_log : str or pathlib.Path, optional
        Append one structured JSONL event per completed request here
        (:class:`~repro.obs.log.EventLog`).  ``None`` disables.
    quiet : bool, default False
        Suppress the per-request ``repro.daemon`` logger lines.  The
        access log, when configured, still records every request.
    """

    def __init__(self, store_path=None, host="127.0.0.1", port=0,
                 build_missing=True, access_log=None, quiet=False):
        self.store = IndexedSurrogateStore(store_path
                                           or DEFAULT_STORE_PATH)
        self.build_missing = bool(build_missing)
        self.quiet = bool(quiet)
        self.access_log = (EventLog(access_log)
                           if access_log is not None else None)
        self.flights = SingleFlight()
        # Per-instance registry: embedded daemons (tests run several in
        # one process) must not share counts.  The legacy /stats keys
        # map 1:1 onto these metrics via _count()/stats().
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests accepted, by endpoint")
        self._latency = self.metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request wall time, by endpoint")
        self._daemon_counters = {
            name: self.metrics.counter(f"repro_daemon_{name}_total",
                                       help_text)
            for name, help_text in (
                ("queries", "Query responses produced"),
                ("errors", "Failed requests plus failed per-query "
                           "responses"),
                ("builds", "Surrogate builds led by this daemon"),
                ("build_solves", "Deterministic solves spent in builds "
                                 "led by this daemon"),
                ("coalesced_builds", "Build requests that waited on an "
                                     "in-flight identical build"),
                ("hits", "Ensure requests answered from the store"),
            )
        }
        self._uptime = self.metrics.gauge(
            "repro_daemon_uptime_seconds",
            "Seconds since this daemon started")
        self._in_flight = self.metrics.gauge(
            "repro_daemon_in_flight_builds",
            "Builds currently running or being waited on")
        self._entries = self.metrics.gauge(
            "repro_store_entries", "Entries in the surrogate store")
        self._started = time.monotonic()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self
        self._thread = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._httpd.server_address[:2]

    def start(self) -> None:
        """Serve in a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-daemon",
            daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting, finish in-flight handlers, close the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.access_log is not None:
            self.access_log.close()

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self._daemon_counters[name].inc(amount)

    def _observe_request(self, method: str, path: str, status: int,
                         duration_s: float, client: str) -> None:
        """Per-request bookkeeping: metrics, access log, logger line.

        The endpoint label is the route for known paths and "other"
        for everything else, so probing clients cannot inflate label
        cardinality.
        """
        # Catalog routes carry the campaign id in the path; collapse
        # them onto the "/campaign" label so ids never become labels.
        endpoint = ("/campaign" if path.startswith("/campaign/")
                    else path)
        if endpoint not in KNOWN_ENDPOINTS:
            endpoint = "other"
        self._requests.inc(endpoint=endpoint)
        self._latency.observe(duration_s, endpoint=endpoint)
        if self.access_log is not None:
            self.access_log.write(
                "request", method=method, path=path, status=int(status),
                duration_s=duration_s, client=client)
        if not self.quiet:
            logger.info("%s %s %s -> %d in %.1f ms", client, method,
                        path, status, duration_s * 1e3)

    def _latency_stats(self) -> dict:
        """Per-endpoint latency summary for the ``/stats`` document."""
        snap = self._latency.snapshot()
        bounds = [*snap["buckets"], float("inf")]
        latency = {}
        for sample in snap["samples"]:
            latency[sample["labels"].get("endpoint", "other")] = {
                "count": sample["count"],
                "sum_s": sample["sum"],
                "buckets": {
                    ("+Inf" if le == float("inf") else repr(le)): n
                    for le, n in zip(bounds, sample["cumulative"])
                },
            }
        return latency

    def stats(self) -> dict:
        """A JSON-ready counter snapshot (the ``/stats`` document)."""
        counters = {name: int(metric.total())
                    for name, metric in self._daemon_counters.items()}
        return {
            **counters,
            "requests": int(self._requests.total()),
            "latency": self._latency_stats(),
            "uptime_s": time.monotonic() - self._started,
            "in_flight_builds": self.flights.in_flight(),
            "entries": count_entries(self.store.root),
            "store": str(self.store.root),
            "build_missing": self.build_missing,
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` document: Prometheus text exposition.

        Merges this daemon's registry (request/latency/legacy
        counters, scrape-time gauges) with the process-global
        ``repro.obs`` registry (store traffic, build volume, solver
        kernel counters).  Metric names never collide: the daemon
        registry owns the ``repro_daemon_*`` / ``repro_http_*`` /
        ``repro_store_entries`` names, the global one the rest.
        """
        self._uptime.set(time.monotonic() - self._started)
        self._in_flight.set(self.flights.in_flight())
        self._entries.set(count_entries(self.store.root))
        return prometheus_text(self.metrics.snapshot()
                               + REGISTRY.snapshot())

    # ------------------------------------------------------------------
    def _ensure(self, spec) -> BuildReport:
        """The single-flight ``ensure`` seam handed to ``serve_batch``.

        Concurrent misses on one cache key coalesce: the leader runs
        ``ensure_surrogate`` (which holds the cross-process build
        lock), followers block on the flight and share its report —
        a coalesced response therefore reports the build it waited
        for, including its solve count.  Builds run serially: the
        worker count is a build argument, and no request can set it.
        """
        if not self.build_missing:
            report = load_surrogate(spec, self.store)
            # Counted after the load: a read-only miss is an error.
            self._count("hits")
            return report
        report, leader = self.flights.do(
            spec.cache_key(), lambda: ensure_surrogate(spec, self.store))
        if not leader:
            self._count("coalesced_builds" if report.built else "hits")
        elif report.built:
            self._count("builds")
            self._count("build_solves", report.num_solves)
        else:
            self._count("hits")
        return report

    def handle_query(self, batch: dict) -> dict:
        """Answer one ``/query`` document (the serve_batch contract)."""
        result = serve_batch(batch, self.store,
                             build_missing=self.build_missing,
                             ensure=self._ensure)
        responses = result["responses"]
        self._count("queries", len(responses))
        failed = sum(1 for r in responses if "error" in r)
        if failed:
            self._count("errors", failed)
        return result


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to the owning :class:`ReproDaemon`."""

    server_version = "repro-daemon"
    protocol_version = "HTTP/1.1"
    # A response goes out as two writes, headers then body.  With
    # Nagle's algorithm on, a client that keeps its connection alive
    # (HTTP/1.1's default) got the body only after its own delayed ACK,
    # ~40 ms per request; TCP_NODELAY sends it at once.
    disable_nagle_algorithm = True

    @property
    def app(self) -> ReproDaemon:
        return self.server.app

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        # The stdlib writes per-request lines to stderr; request
        # completions go through app._observe_request (structured
        # event log + logger) instead, so only stdlib-internal
        # messages (errors) land here, and only at debug level.
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        # Counted before the first byte goes out: a client that reads
        # this response and at once asks /stats must see it counted.
        self._observe(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send_bytes(status, body, "application/json")

    def _read_body(self):
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # Reading would raise (a non-number) or block until the
            # client hangs up (a negative count); the unread body also
            # makes the rest of the connection unparseable.
            self.close_connection = True
            raise ServingError(
                f"Content-Length must be a non-negative integer, "
                f"got {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise ServingError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw or b"{}")
        except ValueError as exc:
            raise ServingError(f"request body is not JSON: {exc}") \
                from exc

    # ------------------------------------------------------------------
    def _timed(self, method: str, route) -> None:
        """Run one verb handler; its response is recorded (metrics +
        access log) once it is ready to send."""
        self._method = method
        self._start = time.perf_counter()
        try:
            route()
        finally:
            # A route that raised before sending is recorded as 0.
            self._observe(0)

    def _observe(self, status: int) -> None:
        """Record this request once: the first response's status."""
        if self._start is None:
            return
        self.app._observe_request(
            self._method, self.path, int(status),
            time.perf_counter() - self._start, self.address_string())
        self._start = None

    def do_GET(self) -> None:
        self._timed("GET", self._route_get)

    def do_POST(self) -> None:
        self._timed("POST", self._route_post)

    def _route_get(self) -> None:
        try:
            if self.path == "/health":
                app = self.app
                self._send(200, {
                    "status": "ok",
                    "uptime_s": time.monotonic() - app._started,
                    "store": str(app.store.root),
                    "entries": count_entries(app.store.root),
                })
            elif self.path == "/stats":
                self._send(200, self.app.stats())
            elif self.path == "/store":
                # What _send makes of {"store": ..., "entries":
                # inventory()}, byte for byte, from rows the index
                # encoded when their sidecars last changed.
                store = self.app.store
                body = ('{"entries": ' + store.inventory_json()
                        + ', "store": ' + json.dumps(str(store.root))
                        + "}\n")
                self._send_bytes(200, body.encode(), "application/json")
            elif self.path == "/campaign":
                self._send(200, {
                    "store": str(self.app.store.root),
                    "campaigns": list_catalogs(self.app.store),
                })
            elif self.path.startswith("/campaign/"):
                campaign_id = self.path[len("/campaign/"):]
                try:
                    catalog = read_catalog(self.app.store,
                                           campaign_id)
                except CampaignError as exc:
                    # Unknown or malformed id: the resource does not
                    # exist, which is a 404, not a server fault.
                    self._send(404, {"error": str(exc)})
                else:
                    self._send(200, catalog)
            elif self.path == "/metrics":
                self._send_bytes(
                    200, self.app.metrics_text().encode(),
                    "text/plain; version=0.0.4; charset=utf-8")
            else:
                self._send(404, {"error": f"no route {self.path!r}"})
        except Exception as exc:  # per-request isolation
            logger.exception("GET %s failed", self.path)
            self.app._count("errors")
            self._send(500, {"error": str(exc)})

    def _route_post(self) -> None:
        try:
            if self.path == "/query":
                batch = self._read_body()
                self._send(200, self.app.handle_query(batch))
            elif self.path == "/shutdown":
                self._send(200, {"status": "shutting down"})
                threading.Thread(target=self.server.shutdown,
                                 daemon=True).start()
            else:
                self._send(404, {"error": f"no route {self.path!r}"})
        except ReproError as exc:
            # Malformed document / read-only miss at the top level:
            # the client's fault, say so with a 400.
            self.app._count("errors")
            self._send(400, {"error": str(exc)})
        except Exception as exc:  # per-request isolation
            logger.exception("POST %s failed", self.path)
            self.app._count("errors")
            self._send(500, {"error": str(exc)})
