"""Build-on-miss: resolve a spec to a stored surrogate.

``ensure_surrogate`` is the serving system's single entry point for
surrogate acquisition: hash the spec, return the stored record on a
hit (zero deterministic solves), otherwise run the full SSCM pipeline
— nominal solve, (w)PFA reduction, sparse-grid collocation on the
batched multi-port fast paths — fit the quadratic chaos, persist it,
and return the fresh record.  A corrupted entry is treated as a miss
and overwritten (self-healing cache); a stale-schema entry is not
reinterpreted but rebuilt the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.adaptive.driver import WarmStart
from repro.analysis.runner import run_sscm_analysis
from repro.daemon.singleflight import build_lock
from repro.errors import (
    StochasticError,
    StoreCorruptionError,
    StoreSchemaError,
)
from repro.obs.metrics import counter
from repro.obs.trace import Tracer, activate, get_tracer, span
from repro.serving.spec import ProblemSpec
from repro.serving.store import (
    SurrogateRecord,
    SurrogateStore,
    adaptive_tol,
)

#: Execution-only observability (process-global registry): cache
#: traffic, build volume and warm-start outcomes of ensure_surrogate.
_STORE_HITS = counter(
    "repro_store_hits_total",
    "ensure_surrogate calls answered from the surrogate store")
_STORE_MISSES = counter(
    "repro_store_misses_total",
    "ensure_surrogate calls that had to build (or rebuild)")
_BUILDS = counter(
    "repro_builds_total", "Surrogate builds completed and persisted")
_BUILD_SOLVES = counter(
    "repro_build_solves_total",
    "Deterministic coupled solves spent inside surrogate builds")
_WARM_STARTS = counter(
    "repro_warm_start_total",
    "Adaptive build warm-start outcomes, by 'outcome' label "
    "(certified / reopened / rejected / none)")


def _warm_outcome(refinement) -> str:
    """Classify a build's warm-start provenance for the counter."""
    warm = (refinement or {}).get("warm_start")
    if not warm:
        return "none"
    if not warm.get("used"):
        return "rejected"
    return "certified" if warm.get("certified") else "reopened"


@dataclass
class BuildReport:
    """What ``ensure_surrogate`` did and what it cost.

    ``num_solves`` counts deterministic coupled solves actually run in
    this call: 0 on a cache hit, nominal + collocation on a build.
    ``warm_start_source`` is the cache key of the stored sibling
    surrogate that seeded an adaptive build, or ``None`` (cache hit,
    fixed-grid build, no usable sibling, or warm starts disabled).
    ``timings`` breaks a build's wall time down from the span tracer
    (``total_s`` / ``solve_s`` / ``fit_s`` / ``store_write_s``
    seconds); it is ``None`` on a cache hit — the hit path is
    deliberately untraced so serving stays zero-overhead.
    """

    record: SurrogateRecord
    built: bool
    num_solves: int
    wall_time: float
    replaced_damaged: bool = False
    warm_start_source: str = None
    timings: dict = None

    @property
    def cache_key(self) -> str:
        return self.record.cache_key


def _warm_start_for(spec: ProblemSpec, store: SurrogateStore,
                    source_key: str = None):
    """Seed an adaptive build of ``spec`` from its nearest stored
    sibling — or from the explicitly designated ``source_key`` when
    given and usable — or ``None`` when no usable seed exists.  Never
    raises: a malformed stored sidecar simply means a cold build."""
    found = None
    if source_key is not None:
        found = store.warm_sibling(spec, source_key)
    if found is None:
        found = store.find_warm_start(spec)
    if found is None:
        return None
    source, sidecar = found
    # The match is relaxed across chaos-basis variants (refinement is
    # basis-independent) and across stopping tolerances (the index
    # set transfers; certification does not).  Record a relaxed seed
    # as such, so the sidecar's warm_start_source documents that the
    # source fit a different basis — or certified a different tol —
    # than this build will.
    stored_reduction = ((sidecar.get("spec") or {}).get("reduction")
                        or {})
    target_reduction = spec.canonical()["reduction"]
    stored_adaptive = stored_reduction.get("adaptive") or {}
    target_adaptive = target_reduction.get("adaptive") or {}
    if stored_adaptive.get("basis") != target_adaptive.get("basis"):
        source = f"{source}:basis-relaxed"
    tol_relaxed = (adaptive_tol(stored_reduction)
                   != adaptive_tol(target_reduction))
    if tol_relaxed:
        source = f"{source}:tol-relaxed"
    try:
        seed = WarmStart.from_refinement(sidecar["refinement"],
                                         source=source)
    except (StochasticError, KeyError, TypeError, ValueError):
        # The store's integrity gate only hashes the sidecar's spec,
        # so an edited refinement block can still reach this point in
        # any malformed shape — all of it means "no usable seed".
        return None
    if tol_relaxed:
        # The source certified a different tolerance class; its index
        # set seeds this build but its frontier evidence must not
        # certify it — the driver re-opens the frontier instead.
        seed = seed.uncertified()
    return seed


def build_surrogate(spec: ProblemSpec, store: SurrogateStore = None,
                    warm_start: bool = True,
                    warm_source: str = None,
                    workers: int = None) -> SurrogateRecord:
    """Run the SSCM pipeline for a spec and wrap the result.

    One nominal solve (wPFA weights) plus one deterministic solve per
    collocation point; each point reuses PR 1's batched factorization
    paths through the problem's ``evaluate_sample``.  ``workers`` fans
    the collocation solves over a process pool (the spec itself is the
    picklable problem builder handed to it), and adaptive builds —
    when a ``store`` is supplied — warm-start from the nearest stored
    sibling spec.

    Parameters
    ----------
    spec : ProblemSpec
        The surrogate identity to build.
    store : SurrogateStore, optional
        Consulted (read-only) for a warm-start seed; nothing is
        persisted here.
    warm_start : bool, default True
        Allow seeding from a stored sibling; ``False`` forces a cold
        build even when ``store`` is given.
    warm_source : str, optional
        Cache key of a *designated* warm-start predecessor (the
        campaign executor's chain neighbor).  Tried first; when it is
        missing, damaged or incompatible the store-wide
        ``find_warm_start`` search is the fallback.  Ignored when
        ``warm_start`` is ``False``.
    workers : int, optional
        Collocation worker processes; ``None`` resolves per build
        (:func:`~repro.analysis.parallel.resolve_workers`) and 1
        forces serial.  The surrogate is bitwise the same for every
        value.

    Returns
    -------
    SurrogateRecord
        The fitted surrogate with full provenance (including
        ``warm_start_source`` inside the refinement sidecar when a
        seed was used).
    """
    with span("build_problem"):
        problem = spec.build_problem()
    kwargs = spec.analysis_kwargs()
    seed = None
    if warm_start and store is not None \
            and kwargs["refinement"] is not None:
        with span("warm_start_lookup"):
            seed = _warm_start_for(spec, store,
                                   source_key=warm_source)
    analysis = run_sscm_analysis(problem,
                                 problem_builder=spec.build_problem,
                                 warm_start=seed, workers=workers,
                                 **kwargs)
    return SurrogateRecord(
        pce=analysis.sscm.pce,
        spec=spec,
        reduction=analysis.reduction_metadata(),
        num_runs=int(analysis.num_runs),
        wall_time=float(analysis.sscm.wall_time),
        problem_signature=problem.spec_signature(),
        created_at=time.time(),
        refinement=analysis.refinement_metadata(),
    )


def ensure_surrogate(spec: ProblemSpec, store: SurrogateStore,
                     rebuild: bool = False, warm_start: bool = True,
                     warm_source: str = None,
                     workers: int = None) -> BuildReport:
    """Return the stored surrogate for ``spec``, building it on a miss.

    Parameters
    ----------
    spec : ProblemSpec
        The surrogate identity (preset + params + reduction config).
    store : SurrogateStore
        Persistent store to consult and populate.  On an adaptive miss
        it is also searched for the nearest sibling spec (same preset
        and reduction, perturbed params) whose accepted index set
        warm-starts the refinement.
    rebuild : bool, default False
        Force a rebuild even on a hit (e.g. after a solver fix).
        Implies a cold build: a rebuild means stored results are not
        trusted, so no stored sibling may seed (let alone certify) it.
    warm_start : bool, default True
        Allow warm-started adaptive builds; ``False`` forces cold
        refinement from the root index.
    warm_source : str, optional
        Cache key of a designated warm-start predecessor to try
        before the store-wide sibling search (see
        :func:`build_surrogate`).  A hit never consults it.
    workers : int, optional
        Collocation worker processes for a build (see
        :func:`build_surrogate`).  Execution policy, not identity: the
        cache key and the stored bytes are the same for every value,
        and a hit ignores it.

    Returns
    -------
    BuildReport
        The record plus what this call actually did and cost.

    Notes
    -----
    The miss path is single-flight across processes: an advisory
    per-key file lock (``<store>/.locks/<key>.lock``) serializes
    concurrent builds of the same spec, and the store is re-checked
    after acquiring, so the losers of the race return the winner's
    entry as a plain hit instead of repeating the solve campaign.
    Hits never touch the lock.  ``rebuild=True`` still builds after
    acquiring (a forced rebuild distrusts whatever the winner wrote).
    """
    key = spec.cache_key()
    start = time.perf_counter()
    replaced_damaged = False

    def check_hit():
        nonlocal replaced_damaged
        if rebuild:
            return None
        try:
            record = store.get(key)
        except (StoreCorruptionError, StoreSchemaError):
            replaced_damaged = True
            return None
        if record is None:
            return None
        # Usage bookkeeping for the inventory / LRU eviction: a hit
        # moves the entry's last_used stamp, its sidecar's mtime.
        store.touch(key)
        return BuildReport(record=record, built=False, num_solves=0,
                           wall_time=time.perf_counter() - start)

    report = check_hit()
    if report is not None:
        _STORE_HITS.inc()
        return report
    # Classified at entry: a coalesced racer that finds the winner's
    # entry after the lock still counts as the miss it initially was.
    _STORE_MISSES.inc()
    # Miss: serialize the build across processes with an advisory
    # per-key lock, so N processes racing the same missing spec run
    # one solve campaign — the losers block here, re-check, and find
    # the winner's entry (a hit, zero solves).  In-process stampedes
    # coalesce one layer up, in the daemon's single-flight table.
    with build_lock(store.root, key):
        report = check_hit()
        if report is not None:
            return report
        tracer = get_tracer()
        if not tracer.enabled:
            # Builds always run under a tracer — their own if none is
            # installed — so BuildReport.timings exists even without
            # --profile.  Span overhead is noise next to the solves it
            # measures; the hit path above stays untraced.
            tracer = Tracer()
        with activate(tracer), \
                tracer.span("build", cache_key=key) as build_span:
            record = build_surrogate(
                spec, store=store,
                warm_start=warm_start and not rebuild,
                warm_source=warm_source, workers=workers)
            totals = tracer.totals(root=build_span.span_id)
            stages = {
                "solve_s": sum(totals.get(name, 0.0) for name in
                               ("nominal_solve", "collocation", "wave")),
                "fit_s": totals.get("fit", 0.0),
            }
            # Persisted (execution-only) breakdown: the sidecar's copy
            # cannot include the write that stores it, so store.save
            # appends its own measured store_write_s.
            record.timings = {
                "total_s": time.perf_counter() - build_span.start,
                **stages,
            }
            with tracer.span("store_write") as write_span:
                store.save(record)
        timings = {"total_s": build_span.duration, **stages,
                   "store_write_s": write_span.duration}
    # One solve per collocation point, plus the nominal solve when the
    # wPFA needed its weights.
    nominal = 1 if spec.resolved_reduction()["method"] == "wpfa" else 0
    num_solves = record.num_runs + nominal
    _BUILDS.inc()
    _BUILD_SOLVES.inc(num_solves)
    if record.refinement is not None:
        _WARM_STARTS.inc(outcome=_warm_outcome(record.refinement))
    source = (record.refinement or {}).get("warm_start_source")
    return BuildReport(record=record, built=True, num_solves=num_solves,
                       wall_time=time.perf_counter() - start,
                       replaced_damaged=replaced_damaged,
                       warm_start_source=source,
                       timings=timings)


def load_surrogate(spec: ProblemSpec, store: SurrogateStore) -> BuildReport:
    """The stored surrogate for ``spec``, never building it: the
    read-only path of ``repro query --no-build`` and a ``--no-build``
    daemon.  A miss or a damaged entry raises; a hit is stamped
    ``last_used`` like any other."""
    start = time.perf_counter()
    key = spec.cache_key()
    record = store.load(key)
    store.touch(key)
    return BuildReport(record=record, built=False, num_solves=0,
                       wall_time=time.perf_counter() - start)
