"""SERVING: warm-store statistical queries vs rebuilding the surrogate.

The paper's closing argument is economic: the SSCM costs a sparse grid
of deterministic solves *once*, after which the quadratic chaos answers
statistical questions for free (the ~10x headline vs 10000-run MC).
The serving layer pushes that to its logical end — build once, persist,
then answer mean/std/quantiles on the stored surrogate at vectorized-
NumPy cost.

This bench builds the TSV (Table II) preset cold through
``ensure_surrogate``, then times a full warm round trip: spec hash ->
store hit -> load -> mean + std + three quantiles from
``query_samples`` surrogate samples.  The second ``ensure_surrogate``
call must perform *zero* deterministic solves — the instrumented
solver count stays at 0.

The gate is the warm round trip's own wall, calibrated: the fastest of
``WARM_REPEATS`` round trips, each drawing a fresh quantile stream (a
sample-bank miss), divided by the fastest run of a reference kernel
timed beside them.  The kernel is the bench's own numpy code (draw,
evaluate a quadratic, sort), so no program change can move it, and
the ratio cancels most of the machine's speed.  The cold/warm ratio is
reported, not gated: a faster build would read as a slower query.
"""

import statistics
import time

import numpy as np
import pytest

from repro.experiments import table2_spec
from repro.reporting import format_kv_block
from repro.serving import QueryEngine, SurrogateStore, ensure_surrogate
from repro.serving.query import _BANK_MISSES
from repro.solver.avsolver import AVSolver

from conftest import write_bench_json, write_report

QUANTILES = (0.01, 0.5, 0.99)
#: Warm round trips timed, each on a fresh seed; the fastest counts.
WARM_REPEATS = 3
#: Ceiling on ``warm_query_calibrated``.  Twenty runs on a 2-core host,
#: ten on each of two builds of different speed, read 1.16-1.56 (medians
#: 1.32 and 1.28); a warm path twice as slow reads above it.
WARM_CALIBRATED_CEILING = 2.0
#: Shape of the reference kernel's draw: standard normals per sample,
#: and outputs of the quadratic it evaluates.
REFERENCE_DIM = 8
REFERENCE_OUTPUTS = 6


@pytest.fixture()
def solve_counter(monkeypatch):
    counter = {"count": 0}
    for name in ("solve", "solve_ports"):
        original = getattr(AVSolver, name)

        def counting(self, *args, _original=original, **kwargs):
            counter["count"] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(AVSolver, name, counting)
    original_samples = AVSolver.solve_samples

    def counting_samples(self, *args, **kwargs):
        for answer in original_samples(self, *args, **kwargs):
            counter["count"] += 1
            yield answer

    monkeypatch.setattr(AVSolver, "solve_samples", counting_samples)
    return counter


def _serving_spec(profile):
    cfg = profile["serving"]
    # Group names depend on the facet layout; probe the problem once
    # (structure build only, no solves) to address the caps.
    probe = table2_spec(**cfg["params"]).build_problem()
    caps = {}
    for group in probe.groups:
        if group.kind == "doping":
            caps[group.name] = cfg["cap_doping"]
        elif "+" in group.name:
            caps[group.name] = cfg["cap_merged"]
        else:
            caps[group.name] = cfg["cap_small"]
    return table2_spec(reduction={"caps": caps}, **cfg["params"])


def _reference_kernel(num_samples: int) -> float:
    """Seconds of the bench's yardstick: draw ``num_samples`` standard
    normal rows, evaluate a fixed quadratic of them and sort each
    output, in plain numpy — a warm quantile query's arithmetic
    without the program's code."""
    rng = np.random.default_rng(0)
    coefficients = rng.standard_normal(
        (2 * REFERENCE_DIM + 1, REFERENCE_OUTPUTS))
    start = time.perf_counter()
    zeta = rng.standard_normal((num_samples, REFERENCE_DIM))
    design = np.hstack([np.ones((num_samples, 1)), zeta, zeta**2 - 1.0])
    values = (design @ coefficients).T.copy()
    values.sort(axis=1)
    return time.perf_counter() - start


def test_warm_query_vs_cold_build(profile, output_dir, tmp_path,
                                  solve_counter):
    spec = _serving_spec(profile)
    store = SurrogateStore(tmp_path / "store")
    samples = profile["serving"]["query_samples"]

    start = time.perf_counter()
    cold = ensure_surrogate(spec, store)
    cold_time = time.perf_counter() - start
    assert cold.built
    cold_solves = solve_counter["count"]
    assert cold_solves == cold.num_solves > 0

    # Warm round trips: hash -> hit -> load -> mean/std/quantiles, each
    # on a stream no earlier query drew, interleaved with the kernel.
    solve_counter["count"] = 0
    misses = _BANK_MISSES.value()
    warm_time = reference_time = float("inf")
    for trip in range(WARM_REPEATS):
        reference_time = min(reference_time, _reference_kernel(samples))
        start = time.perf_counter()
        warm = ensure_surrogate(spec, store)
        engine = QueryEngine(warm.record, num_samples=samples,
                             seed=1 + trip)
        mean = engine.mean()
        std = engine.std()
        quantiles = engine.quantiles(QUANTILES)
        warm_time = min(warm_time, time.perf_counter() - start)

    assert _BANK_MISSES.value() - misses == WARM_REPEATS
    assert not warm.built
    assert warm.num_solves == 0
    assert solve_counter["count"] == 0, \
        "second ensure_surrogate ran deterministic solves"
    np.testing.assert_array_equal(warm.record.pce.coefficients,
                                  cold.record.pce.coefficients)
    assert np.all(std > 0.0)
    assert np.all(quantiles[0] <= quantiles[-1])

    calibrated = warm_time / reference_time
    rows = [
        ("cache key", spec.cache_key()[:16] + "..."),
        ("reduced dim d", str(sum(g["reduced_size"]
                                  for g in cold.record.reduction))),
        ("cold build solves", str(cold_solves)),
        ("cold build [s]", f"{cold_time:.3f}"),
        ("warm solves", "0"),
        (f"warm query [s] (mean/std/q x {samples} samples, fastest of "
         f"{WARM_REPEATS})", f"{warm_time:.4f}"),
        ("reference kernel [s]", f"{reference_time:.4f}"),
        ("warm query / reference kernel", f"{calibrated:.2f}"),
        ("cold build / warm query", f"{cold_time / warm_time:.1f}x"),
        ("C_T1 mean/std [F]", f"{mean[0]:.4e} / {std[0]:.4e}"),
        ("C_T1 q01/q50/q99 [F]",
         " / ".join(f"{q:.4e}" for q in quantiles[:, 0])),
    ]
    write_report(output_dir, "bench_serving",
                 format_kv_block(rows, title="surrogate serving: warm "
                                             "store vs cold build"))
    write_bench_json(output_dir, "serving", {
        "cold_build_solves": int(cold_solves),
        "wall_time_cold_s": cold_time,
        "wall_time_warm_s": warm_time,
        "wall_time_reference_s": reference_time,
        "warm_query_calibrated": calibrated,
        "query_samples": int(samples),
    })
    assert calibrated <= WARM_CALIBRATED_CEILING, \
        f"warm round trip {calibrated:.2f}x the reference kernel"


def test_observability_zero_overhead(profile, output_dir, tmp_path):
    """Default-on metrics must not tax the warm serving path.

    The obs contract is zero overhead when nobody is looking: the
    tracer is off by default, the hit path is untraced, and the only
    instrumentation it runs is counter increments.  Three layers, from
    exact to end-to-end:

    1. *structural* — a warm hit activates no tracer (``timings`` is
       ``None``) and touches nothing in the registry beyond the
       store-traffic counters;
    2. *direct <2% gate* — counter-increment cost (timed over 100k
       calls) times the increments one warm trip performs must stay
       under 2% of the trip's wall time.  This is the contract's
       number, measured where it is statistically clean: the true
       fraction is ~1e-4, and the estimator's noise is microseconds.
    3. *end-to-end sanity* — paired A/B wall ratio: one trip with
       the registry enabled next to one with it disabled, the lead
       alternating, and the median over many pairs.  Each trip
       rewrites a sidecar, so a disk stall can make one trip slow;
       pairing confines a stall to one ratio, which the median
       ignores.  Gated at 5%, not 2%: per-process layout/hash-seed
       bias on this ~1.5 ms disk-touching path measures ±3% for
       *identical* true cost (verified with pinned PYTHONHASHSEED),
       so a tighter wall gate would flake without measuring anything.
       ``check_bench`` applies the same absolute ceiling.
    """
    from repro.obs.metrics import REGISTRY, counter

    spec = _serving_spec(profile)
    store = SurrogateStore(tmp_path / "store")
    ensure_surrogate(spec, store)
    samples = profile["serving"]["query_samples"]

    def warm_round_trip():
        report = ensure_surrogate(spec, store)
        engine = QueryEngine(report.record, num_samples=samples)
        engine.mean()
        engine.std()
        return report

    def observe(batch=1):
        start = time.perf_counter()
        for _ in range(batch):
            warm_round_trip()
        return time.perf_counter() - start

    # --- structural: the hit path is untraced and touches only the
    # store-traffic counters.
    before = {m["name"]: m for m in REGISTRY.snapshot()}
    report = warm_round_trip()
    assert report.timings is None, "warm hit ran under a tracer"
    after = {m["name"]: m for m in REGISTRY.snapshot()}
    changed = {name for name in after
               if after[name] != before.get(name)}
    assert changed <= {"repro_store_hits_total"}, \
        f"warm hit moved unexpected metrics: {sorted(changed)}"

    # --- direct: increments per trip x cost per increment < 2% of
    # the trip wall.
    scratch = counter("repro_bench_scratch_total", "overhead probe")
    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        scratch.inc()
    inc_cost = (time.perf_counter() - start) / calls
    hits = REGISTRY.counter("repro_store_hits_total",
                            "ensure_surrogate store hits")
    base = hits.total()
    trips = 12
    trip_wall = observe(trips) / trips
    incs_per_trip = (hits.total() - base) / trips
    direct_fraction = incs_per_trip * inc_cost / trip_wall
    assert direct_fraction < 0.02, \
        f"counter increments cost {direct_fraction:.2%} of a warm trip"

    # --- end-to-end: enabled/disabled trips paired one to one,
    # alternating lead, median of the paired ratios.
    rounds = 401
    ratios = []
    for index in range(rounds):
        walls = {}
        for enabled in ((True, False) if index % 2 else (False, True)):
            if enabled:
                walls[enabled] = observe()
            else:
                REGISTRY.disable()
                try:
                    walls[enabled] = observe()
                finally:
                    REGISTRY.enable()
        ratios.append(walls[True] / walls[False])
    overhead = statistics.median(ratios)

    write_bench_json(output_dir, "serving_overhead", {
        "warm_obs_overhead": overhead,
        "warm_obs_direct_overhead": 1.0 + direct_fraction,
        "wall_ratio_spread": max(ratios) - min(ratios),
        "rounds": rounds,
        "query_samples": int(samples),
    })
    assert overhead < 1.05, \
        f"observability overhead on the warm path: {overhead:.4f}x"


def test_batch_queries_share_the_store(profile, tmp_path, solve_counter):
    """A multi-query batch against a warm store runs solve-free."""
    from repro.serving import serve_batch

    spec = _serving_spec(profile)
    store = SurrogateStore(tmp_path / "store")
    ensure_surrogate(spec, store)
    solve_counter["count"] = 0

    samples = profile["serving"]["query_samples"]
    request = {"spec": spec.to_dict(),
               "queries": [{"kind": "mean"}, {"kind": "std"},
                           {"kind": "quantiles", "q": list(QUANTILES),
                            "num_samples": samples},
                           {"kind": "yield_below", "limit": 0.0,
                            "num_samples": samples}]}
    result = serve_batch({"requests": [request, request]}, store)
    assert solve_counter["count"] == 0
    for response in result["responses"]:
        assert not response["built"]
        assert len(response["answers"]) == 4
