"""Per-layer tracing from outside the program.

The benchmark never edits the system under test.  It measures each
layer by replacing that layer's public functions with timing wrappers,
at the binding the caller actually looks up (``solve_sparse`` is
patched in :mod:`repro.solver.newton`, where ``damped_newton`` finds
it, not only in :mod:`repro.solver.linear`).  Wrappers are installed
for traced ops only and removed afterwards, so untraced ops run the
pristine code.

Spans go to a :class:`repro.obs.trace.Tracer` that is never activated,
so the program's own spans stay out of it.  Every span of an op lies in
the subtree of that op's root span: the HTTP handler thread of an
in-process daemon has no open span, so its span is hung under the op
of the client socket's port (see :meth:`Wiring.bind_port`).  Wrappers
store counts in span ``attrs``, keyed by the metric's name.

Every ``*_s`` layer metric is the wall time inside the named calls,
counting a call nested in a call of the same layer once.  A few
subtract the calls nested inside them (the second entry of a
``LAYER_TIMES`` row).  All layer metrics are reported per op.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

from repro.obs.profile import span_coverage


def timed(tracer, name: str, fn, after=None):
    """``fn`` wrapped in a span; ``after(span, result)`` on return."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as node:
            result = fn(*args, **kwargs)
            if after is not None:
                after(node, result)
        return result

    return wrapper


def timed_generator(tracer, name: str, fn, after=None):
    """Generator ``fn`` with every ``next`` step timed as a span.

    Only the generator's own work is inside the span; the consumer's
    work between steps is not.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        generator = fn(*args, **kwargs)
        while True:
            with tracer.span(name) as node:
                try:
                    item = next(generator)
                except StopIteration:
                    return
                if after is not None:
                    after(node, item)
            yield item

    return wrapper


def _count_iterations(node, state):
    node.attrs["solver.dc.newton_iterations"] = state.iterations


def _count_draws(node, item):
    node.attrs["serving.query.samples_drawn"] = item[1].shape[0]


def _wrap_qoi_after_init(tracer, original_post_init):
    """``VariationalProblem.__post_init__`` that times the QoI callable."""

    @functools.wraps(original_post_init)
    def post_init(self):
        original_post_init(self)
        self.qoi = timed(tracer, "extraction", self.qoi)

    return post_init


def _daemon_handler(wiring, fn):
    """HTTP verb handler, hung under the op of the client's port."""

    @functools.wraps(fn)
    def handler(self):
        with wiring.tracer.span("daemon.handle") as node:
            node.parent_id = wiring.port_ops.get(self.client_address[1])
            return fn(self)

    return handler


def _sites():
    """``(owner, attribute, span name, wrapper kind, after)`` rows."""
    import repro.analysis.problem as problem
    import repro.analysis.runner as runner
    import repro.campaign.executor as executor
    import repro.daemon.index as index
    import repro.daemon.server as server
    import repro.extraction.capacitance as capacitance
    import repro.mesh.perturbed as perturbed
    import repro.serving.pipeline as pipeline
    import repro.serving.query as query
    import repro.serving.service as service
    import repro.serving.spec as spec
    import repro.serving.store as store
    import repro.solver.ac as ac
    import repro.solver.avsolver as avsolver
    import repro.solver.backends as backends
    import repro.solver.linear as linear
    import repro.solver.newton as newton
    import repro.stochastic.pce as pce
    import repro.variation.csv_model as csv_model
    import repro.variation.doping_variation as doping_variation
    import repro.variation.naive_model as naive_model

    engine = query.QueryEngine
    return [
        (avsolver, "solve_equilibrium", "solver.dc", "call",
         _count_iterations),
        (newton, "solve_sparse", "solver.dc.linear", "call", None),
        (ac.ACSystem, "__init__", "solver.ac.assemble", "call", None),
        (backends.LUBackend, "factorize", "solver.ac.factorize", "call",
         None),
        (backends.KrylovBackend, "factorize", "solver.ac.factorize",
         "call", None),
        (ac.ACSystem, "solve", "solver.ac.solve", "call", None),
        (ac.ACSystem, "solve_ports", "solver.ac.solve", "call", None),
        (linear.SparseFactor, "__init__", "solver.linear.factorize",
         "call", None),
        (linear.SparseFactor, "solve", "solver.linear.solve", "call",
         None),
        (problem.VariationalProblem, "__post_init__", None, "qoi", None),
        (capacitance, "conductor_labels", "extraction.conductor_labels",
         "call", None),
        (csv_model.ContinuousSurfaceModel, "perturbed_grid",
         "variation.perturb", "call", None),
        (naive_model.NaiveSurfaceModel, "perturbed_grid",
         "variation.perturb", "call", None),
        (perturbed.PerturbedGrid, "geometry", "variation.perturb", "call",
         None),
        (doping_variation.RandomDopingModel, "profile_for",
         "variation.perturb", "call", None),
        (problem.VariationalProblem, "evaluate_sample", "analysis.sample",
         "call", None),
        (problem.VariationalProblem, "nominal_solution",
         "analysis.sample", "call", None),
        (spec.ProblemSpec, "build_problem", "analysis.build_problem",
         "call", None),
        (runner, "reduce_groups", "stochastic.reduce", "call", None),
        (pipeline, "run_sscm_analysis", "adaptive.driver", "call", None),
        (store.SurrogateStore, "get", "serving.store.get", "call", None),
        (store.SurrogateStore, "touch", "serving.store.touch", "call",
         None),
        (index.IndexedSurrogateStore, "touch", "serving.store.touch",
         "call", None),
        (store.SurrogateStore, "save", "serving.store.save", "call", None),
        (index.IndexedSurrogateStore, "save", "serving.store.save", "call",
         None),
        (store.SurrogateStore, "find_warm_start",
         "serving.store.warm_lookup", "call", None),
        (index.IndexedSurrogateStore, "find_warm_start",
         "serving.store.warm_lookup", "call", None),
        (index.IndexedSurrogateStore, "inventory",
         "serving.store.inventory", "call", None),
        (index.StoreIndex, "refresh", "daemon.index.refresh", "call", None),
        (engine, "mean", "serving.query.closed_form", "call", None),
        (engine, "std", "serving.query.closed_form", "call", None),
        (engine, "variance", "serving.query.closed_form", "call", None),
        (engine, "corner", "serving.query.closed_form", "call", None),
        (pce.PolynomialChaos, "sample_values", "serving.query.draw", "call",
         None),
        (pce.PolynomialChaos, "sample_chunks", "serving.query.draw",
         "generator", _count_draws),
        (engine, "quantiles", "serving.query.reduce", "call", None),
        (engine, "yield_above", "serving.query.reduce", "call", None),
        (engine, "yield_below", "serving.query.reduce", "call", None),
        (service, "parse_request", "serving.service.parse", "call", None),
        (server, "serve_batch", "daemon.serve_batch", "call", None),
        (server._Handler, "do_GET", None, "handler", None),
        (server._Handler, "do_POST", None, "handler", None),
        (executor, "plan_campaign", "campaign.plan", "call", None),
        (executor, "write_catalog", "campaign.catalog_write", "call", None),
    ]


class Wiring:
    """Installs and removes the layer wrappers around traced ops."""

    def __init__(self, tracer):
        self.tracer = tracer
        #: Client socket port -> span id of the op it serves.
        self.port_ops = {}
        self._patches = []
        for owner, attr, name, kind, after in _sites():
            original = getattr(owner, attr)
            if kind == "call":
                wrapper = timed(tracer, name, original, after)
            elif kind == "generator":
                wrapper = timed_generator(tracer, name, original, after)
            elif kind == "qoi":
                wrapper = _wrap_qoi_after_init(tracer, original)
            else:
                wrapper = _daemon_handler(self, original)
            self._patches.append((owner, attr, original, wrapper))

    def bind_port(self, port: int, op_span) -> None:
        """Requests arriving from client ``port`` belong to ``op_span``."""
        self.port_ops[port] = op_span.span_id

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Layer metrics.
# ----------------------------------------------------------------------
#: ``metric -> (span names timed, span names subtracted)``.  The
#: subtracted spans are those nested inside the timed ones.
LAYER_TIMES = {
    "solver.dc.busy_s": (("solver.dc",), ()),
    "solver.dc.linear_s": (("solver.dc.linear",), ()),
    "solver.ac.assemble_s": (("solver.ac.assemble",), ()),
    "solver.ac.factorize_s": (("solver.ac.factorize",), ()),
    "solver.ac.solve_s": (("solver.ac.solve",), ("solver.ac.factorize",)),
    "solver.linear.factorize_s": (("solver.linear.factorize",), ()),
    "extraction.busy_s": (("extraction",), ()),
    "variation.perturb_s": (("variation.perturb",), ()),
    "analysis.sample_s": (("analysis.sample",), ()),
    "analysis.build_problem_s": (("analysis.build_problem",), ()),
    "stochastic.reduce_s": (("stochastic.reduce",), ()),
    "adaptive.driver_s": (("adaptive.driver",),
                          ("analysis.sample", "stochastic.reduce")),
    "serving.store.get_s": (("serving.store.get",), ()),
    "serving.store.touch_s": (("serving.store.touch",), ()),
    "serving.store.save_s": (("serving.store.save",), ()),
    "serving.store.warm_lookup_s": (("serving.store.warm_lookup",), ()),
    "daemon.index.refresh_s": (("daemon.index.refresh",), ()),
    "serving.query.closed_form_s": (("serving.query.closed_form",), ()),
    "serving.query.draw_s": (("serving.query.draw",), ()),
    "serving.query.reduce_s": (("serving.query.reduce",),
                               ("serving.query.draw",)),
    "serving.service.parse_s": (("serving.service.parse",), ()),
    "campaign.plan_s": (("campaign.plan",), ()),
    "campaign.catalog_write_s": (("campaign.catalog_write",), ()),
}

#: ``metric -> span name`` whose outermost calls are counted.
LAYER_CALLS = {
    "solver.dc.calls": "solver.dc",
    "solver.dc.linear_solves": "solver.dc.linear",
    "solver.ac.systems": "solver.ac.assemble",
    "solver.ac.factorizations": "solver.ac.factorize",
    "solver.linear.factorizations": "solver.linear.factorize",
    "solver.linear.back_substitutions": "solver.linear.solve",
    "extraction.conductor_labels_calls": "extraction.conductor_labels",
    "analysis.samples": "analysis.sample",
    "daemon.index.refreshes": "daemon.index.refresh",
}

#: Counts the wrappers (or the runner, on op spans) keep in span
#: ``attrs``; the runner passes the daemon's counters separately.
LAYER_COUNTS = (
    "solver.dc.newton_iterations",
    "serving.query.samples_drawn",
    "daemon.requests",
    "daemon.errors",
    "campaign.solves",
    "campaign.warm_started",
)

#: Catch-all spans that enclose the leaf layers.  Their self time (and
#: the op's own) is op wall no leaf layer accounts for.
CONTAINERS = frozenset({"adaptive.driver", "analysis.sample",
                        "analysis.build_problem", "daemon.handle",
                        "daemon.serve_batch"})

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    **{name: "count" for name in LAYER_COUNTS},
    "solver.linear.reuse_ratio": "ratio",
    "analysis.unattributed_s": "s",
    "daemon.http_s": "s",
    "campaign.warm_certified_ratio": "ratio",
    "trace.attributed_share": "ratio",
    "trace.leaf_share": "ratio",
    "trace.overhead": "ratio",
}


class SpanIndex:
    """Parent/child lookups over a tracer's closed spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {span.span_id: span for span in spans}
        self.children = {}
        for span in spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)

    def has_ancestor(self, span, names) -> bool:
        parent = span.parent_id
        while parent is not None:
            ancestor = self.by_id[parent]
            if ancestor.name in names:
                return True
            parent = ancestor.parent_id
        return False

    def outermost(self, names) -> list:
        """Spans named in ``names`` not nested in another such span."""
        return [span for span in self.spans if span.name in names
                and not self.has_ancestor(span, names)]

    def self_time(self, span) -> float:
        """Duration minus the part of it the child spans cover."""
        # span_coverage scans the spans it is given for children;
        # handing it only this span's children keeps the scan short.
        children = SimpleNamespace(spans=self.children.get(span.span_id,
                                                           ()))
        return span.duration * (1.0 - span_coverage(children, span))

    def time_in(self, names, minus=()) -> float:
        """Wall time inside ``names`` minus nested ``minus`` spans."""
        total = 0.0
        for span in self.outermost(names):
            total += span.duration
            if minus:
                total -= sum(
                    inner.duration for inner in self._descendants(span)
                    if inner.name in minus
                    and not self._nested_below(inner, span, minus))
        return total

    def _descendants(self, span):
        pending = list(self.children.get(span.span_id, ()))
        while pending:
            child = pending.pop()
            yield child
            pending.extend(self.children.get(child.span_id, ()))

    def _nested_below(self, inner, top, names) -> bool:
        """Is ``inner`` inside another ``names`` span below ``top``?"""
        parent = inner.parent_id
        while parent is not None and parent != top.span_id:
            if self.by_id[parent].name in names:
                return True
            parent = self.by_id[parent].parent_id
        return False

    def outside_leaves(self, op_span) -> float:
        """Time of ``op_span`` inside no leaf layer: the self time of
        the op and of every container span below it."""
        return self.self_time(op_span) + sum(
            self.self_time(span) for span in self._descendants(op_span)
            if span.name in CONTAINERS)


def layer_metrics(tracer, op_spans, counts=None) -> dict:
    """Per-op layer metrics from a tracer holding only traced ops.

    ``op_spans`` are the root spans of the traced ops; ``counts`` adds
    run-level counters (the daemon's).  Layers a workload never reaches
    report 0.
    """
    ops = max(len(op_spans), 1)
    index = SpanIndex(tracer.spans)
    totals = dict(counts or {})
    for span in tracer.spans:
        for name, value in span.attrs.items():
            totals[name] = totals.get(name, 0) + value
    metrics = {}
    for name, (names, minus) in LAYER_TIMES.items():
        metrics[name] = index.time_in(set(names), set(minus)) / ops
    for name, span_name in LAYER_CALLS.items():
        metrics[name] = len(index.outermost({span_name})) / ops
    for name in LAYER_COUNTS:
        metrics[name] = totals.get(name, 0) / ops
    factorizations = metrics["solver.linear.factorizations"]
    metrics["solver.linear.reuse_ratio"] = (
        metrics["solver.linear.back_substitutions"] / factorizations
        if factorizations else 0.0)
    warm = totals.get("campaign.warm_started", 0)
    metrics["campaign.warm_certified_ratio"] = (
        totals.get("campaign.warm_certified", 0) / warm if warm else 0.0)
    wall = sum(span.duration for span in op_spans)
    unattributed = sum(index.self_time(span) for span in op_spans)
    outside = sum(index.outside_leaves(span) for span in op_spans)
    metrics["analysis.unattributed_s"] = unattributed / ops
    metrics["trace.attributed_share"] = (
        1.0 - unattributed / wall if wall else 0.0)
    metrics["trace.leaf_share"] = 1.0 - outside / wall if wall else 0.0
    handled = index.time_in({"daemon.serve_batch",
                             "serving.store.inventory"})
    metrics["daemon.http_s"] = (
        (wall - handled) / ops if totals.get("daemon.requests") else 0.0)
    return metrics
