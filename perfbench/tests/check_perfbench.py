"""Tests of the benchmark itself (not of the system it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/tests/check_perfbench.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
import warmgen  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# The percentile rule.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 98.0),
    (500, 98.0), (499, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
    (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None),
    (2, None)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_p95_or_tail():
    values = list(range(1, 401))
    value, used = stats.p95_or_tail(values)
    assert used == 95.0
    assert value == pytest.approx(np.percentile(values, 95))
    # 100 samples: p95 has only 5 beyond, so the tail falls to p90.
    value, used = stats.p95_or_tail(list(range(100)))
    assert used == 90.0 and value == pytest.approx(89.1)
    # Too few samples for any tail: the median stands in.
    assert stats.p95_or_tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


# ----------------------------------------------------------------------
# Reference-host seconds.
# ----------------------------------------------------------------------
def test_bracketed_scales_by_the_neighbouring_probes(monkeypatch):
    monkeypatch.setattr(hostspeed, "REFERENCE_S", 1.0)
    # A host twice as slow halves the latency; a lone outlier probe
    # is outvoted by its two neighbours.
    scaled = hostspeed.bracketed([4.0, 4.0, 4.0, 4.0],
                                 [2.0, 2.0, 50.0, 2.0])
    assert scaled == pytest.approx([2.0, 2.0, 2.0, 2.0])
    assert hostspeed.bracketed([3.0], [1.5]) == pytest.approx([2.0])


def test_sampler_probes_and_restores_the_alarm(tmp_path):
    import signal
    import time

    probe = hostspeed.HostProbe(tmp_path)
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(probe) as sampler:
        deadline = time.perf_counter() + 3 * hostspeed.SAMPLE_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.probes) >= 4  # entry, exit and the alarms
    assert all(0.0 < seconds < 1.0 for seconds in sampler.probes)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Self-time arithmetic.
# ----------------------------------------------------------------------
def _tracer(rows):
    """``(name, start, end, parent row)`` rows -> a tracer."""
    tracer = Tracer()
    for name, start, end, parent in rows:
        tracer.add_span(name, start, end, parent_id=(
            None if parent is None else tracer.spans[parent].span_id))
    return tracer


def test_self_time_subtracts_the_union_of_children():
    tracer = _tracer([
        ("op", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),   # overlaps a: union [1, 4]
        ("c", 5.0, 6.0, 0),
        ("d", 5.5, 5.8, 3),   # grandchild: not subtracted from op
        ("e", 9.5, 11.0, 0),  # clipped to the parent
    ])
    index = layers.SpanIndex(tracer.spans)
    assert index.self_time(tracer.spans[0]) == pytest.approx(5.5)
    assert index.self_time(tracer.spans[3]) == pytest.approx(0.7)


def test_nested_calls_of_one_layer_count_once():
    tracer = _tracer([
        ("op", 0.0, 10.0, None),
        ("draw", 1.0, 5.0, 0),
        ("draw", 1.5, 4.5, 1),   # a chunk inside sample_values
        ("reduce", 6.0, 9.0, 0),
        ("draw", 6.5, 8.0, 3),
    ])
    index = layers.SpanIndex(tracer.spans)
    assert index.time_in({"draw"}) == pytest.approx(4.0 + 1.5)
    assert len(index.outermost({"draw"})) == 2
    assert index.time_in({"reduce"}, {"draw"}) == pytest.approx(1.5)


def test_layer_metrics_are_per_op():
    tracer = _tracer([
        ("op", 0.0, 4.0, None),
        ("adaptive.driver", 0.0, 3.5, 0),
        ("solver.dc", 0.0, 3.0, 1),
        ("solver.dc.linear", 0.5, 1.0, 2),
        ("op", 10.0, 12.0, None),
        ("solver.dc", 10.0, 11.0, 4),
    ])
    tracer.spans[2].attrs["solver.dc.newton_iterations"] = 3
    ops = [tracer.spans[0], tracer.spans[4]]
    metrics = layers.layer_metrics(tracer, ops, {"daemon.errors": 4})
    assert metrics["solver.dc.calls"] == 1.0
    assert metrics["solver.dc.busy_s"] == pytest.approx(2.0)
    assert metrics["solver.dc.newton_iterations"] == 1.5
    assert metrics["daemon.errors"] == 2.0
    assert metrics["analysis.unattributed_s"] == pytest.approx(0.75)
    assert metrics["trace.attributed_share"] == pytest.approx(4.5 / 6.0)
    # The driver's own 0.5 s is attributed, but to no leaf layer.
    assert metrics["trace.leaf_share"] == pytest.approx(4.0 / 6.0)
    assert set(layers.PER_LAYER_UNITS) - {"trace.overhead"} \
        <= set(metrics)


def test_wiring_restores_every_binding():
    import repro.solver.newton as newton
    from repro.solver.linear import SparseFactor

    before = (newton.solve_sparse, SparseFactor.__init__)
    wiring = layers.Wiring(Tracer())
    wiring.install()
    try:
        assert newton.solve_sparse is not before[0]
        assert SparseFactor.__init__ is not before[1]
    finally:
        wiring.remove()
    assert (newton.solve_sparse, SparseFactor.__init__) == before


def test_wrapped_newton_solve_is_recorded():
    import scipy.sparse as sp
    from repro.solver.newton import damped_newton

    tracer = Tracer()
    wiring = layers.Wiring(tracer)
    wiring.install()
    try:
        x, iterations = damped_newton(
            lambda x: (x * x - 4.0, sp.diags(2.0 * x)), np.array([3.0]))
    finally:
        wiring.remove()
    assert x[0] == pytest.approx(2.0)
    index = layers.SpanIndex(tracer.spans)
    assert len(index.outermost({"solver.dc.linear"})) == iterations
    assert len(index.outermost({"solver.linear.factorize"})) == iterations


# ----------------------------------------------------------------------
# Generator determinism.
# ----------------------------------------------------------------------
def _store_digest(root: Path) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.iterdir()) if path.is_file()}


def test_same_seed_same_store_bytes_and_requests(tmp_path):
    first = warmgen.WarmInputs(5)
    second = warmgen.WarmInputs(5)
    keys = first.write_store(tmp_path / "a")
    assert keys == second.write_store(tmp_path / "b")
    assert len(keys) == warmgen.FILLER_ENTRIES + 6
    assert _store_digest(tmp_path / "a") == _store_digest(tmp_path / "b")
    head = list(itertools.islice(first.requests(), 600))
    assert head == list(itertools.islice(second.requests(), 600))
    other = warmgen.WarmInputs(6)
    assert list(itertools.islice(other.requests(), 600)) != head


def test_mix_is_stratified():
    requests = list(itertools.islice(warmgen.WarmInputs(3).requests(),
                                     300))
    for block in range(3):
        kinds = [r["kind"] for r in requests[block * 100:
                                             (block + 1) * 100]]
        assert {kind: kinds.count(kind) for kind in warmgen.MIX} \
            == warmgen.MIX
    yields = [(r["bank"], r["stream"]) for r in requests
              if r["kind"] == "yield"]
    assert len(set(yields)) == len(yields)


# ----------------------------------------------------------------------
# Failure counting.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Real program answers to the first requests of seed 9."""
    from repro.serving import SurrogateStore, serve_batch

    inputs = warmgen.WarmInputs(9)
    root = tmp_path_factory.mktemp("store")
    keys = inputs.write_store(root)
    store = SurrogateStore(root)
    pairs = []
    for request in itertools.islice(inputs.requests(), 200):
        if request["kind"] == "store":
            document = {"entries": store.inventory()}
        elif request["kind"] == "quantiles" and any(
                r["kind"] == "quantiles" for r, _ in pairs):
            continue  # one 1M-sample answer is enough here
        else:
            document = serve_batch(request["body"], store,
                                   build_missing=False)
        pairs.append((request, document))
    return pairs, keys, workloads.load_refs("warm_answers.json")


def test_committed_answers_match_the_program(served):
    pairs, keys, refs = served
    assert {r["kind"] for r, _ in pairs} == set(warmgen.MIX)
    for request, document in pairs:
        assert warmgen.check_response(request, document, refs, keys,
                                      workloads.QUERY_REL_TOL), request


def test_corrupted_reference_counts_as_failure(served):
    pairs, keys, refs = served
    failures = 0
    for request, document in pairs:
        if request["kind"] != "moments":
            continue
        corrupted = copy.deepcopy(refs)
        corrupted[request["bank"]]["std"][0] *= 1.0 + 1e-11
        failures += not warmgen.check_response(
            request, document, corrupted, keys, workloads.QUERY_REL_TOL)
    assert failures == sum(1 for r, _ in pairs if r["kind"] == "moments")
    store_request = next(r for r, _ in pairs if r["kind"] == "store")
    assert not warmgen.check_response(
        store_request, {"entries": []}, refs, keys, 1e-12)


def test_build_check_uses_the_1e9_bar():
    from repro.stochastic.hermite import HermiteBasis
    from repro.stochastic.pce import PolynomialChaos

    basis = HermiteBasis(2, order=2)
    pce = PolynomialChaos(basis, np.linspace(1.0, 2.0, basis.size)[:, None])
    reference = {"mean": pce.mean.tolist(), "std": pce.std.tolist()}
    assert workloads.stats_close(pce, reference)
    reference["std"] = [reference["std"][0] * (1.0 + 2e-9)]
    assert not workloads.stats_close(pce, reference)
