"""Tests of the surrogate store & query-serving subsystem.

Store round-trips must be bitwise-faithful (a surrogate is a set of
float coefficients — any drift is silent statistical corruption), cache
keys must be stable across processes, and the query engine's sampled
answers must agree exactly with direct NumPy on the same samples.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.problem import VariationalProblem
from repro.analysis.runner import run_sscm_analysis
from repro.errors import (
    ServingError,
    StochasticError,
    StoreCorruptionError,
    StoreSchemaError,
)
from repro.experiments import table1_spec, table2_spec
from repro.serving import (
    ProblemSpec,
    QueryEngine,
    SurrogateRecord,
    SurrogateStore,
    ensure_surrogate,
    serve_batch,
)
from repro.serving.store import SCHEMA_VERSION
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.montecarlo import run_monte_carlo
from repro.stochastic.pce import QuadraticPCE

TINY_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 6}
TINY_REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}


def tiny_spec() -> ProblemSpec:
    return table1_spec("doping", reduction=dict(TINY_REDUCTION),
                       **TINY_PARAMS)


@pytest.fixture()
def store(tmp_path):
    return SurrogateStore(tmp_path / "store")


@pytest.fixture(scope="module")
def synthetic_record():
    rng = np.random.default_rng(7)
    basis = HermiteBasis(3)
    pce = QuadraticPCE(basis, rng.standard_normal((basis.size, 2)),
                       output_names=["a", "b"])
    return SurrogateRecord(
        pce=pce, spec=tiny_spec(),
        reduction=[{"name": "doping", "kind": "doping", "full_size": 6,
                    "reduced_size": 1, "energy_captured": 0.93,
                    "offset": 0}],
        num_runs=5, wall_time=0.25)


class TestSpec:
    def test_cache_key_is_deterministic(self):
        assert tiny_spec().cache_key() == tiny_spec().cache_key()
        assert len(tiny_spec().cache_key()) == 64

    def test_explicit_default_matches_omitted(self):
        implicit = table1_spec("doping", **TINY_PARAMS)
        explicit = table1_spec("doping", frequency=1.0e9, sigma_m=0.1,
                               **TINY_PARAMS)
        assert implicit.cache_key() == explicit.cache_key()

    def test_int_and_float_spell_the_same_key(self):
        # JSON clients with float-only numbers must still hit the cache.
        as_int = table1_spec("doping", max_step_um=2.0, rdf_nodes=6)
        as_float = table1_spec("doping", max_step_um=2, rdf_nodes=6.0)
        assert as_int.cache_key() == as_float.cache_key()

    def test_any_field_changes_key(self):
        base = tiny_spec().cache_key()
        assert table1_spec("both", reduction=dict(TINY_REDUCTION),
                           **TINY_PARAMS).cache_key() != base
        assert table1_spec("doping", reduction={"energy": 0.9},
                           **TINY_PARAMS).cache_key() != base
        assert table1_spec("doping", reduction=dict(TINY_REDUCTION),
                           max_step_um=2.0,
                           rdf_nodes=8).cache_key() != base
        assert table2_spec().cache_key() != base

    def test_cache_key_stable_across_processes(self):
        spec = tiny_spec()
        script = (
            "from repro.experiments import table1_spec;"
            f"print(table1_spec('doping', reduction={TINY_REDUCTION!r},"
            f" **{TINY_PARAMS!r}).cache_key())")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == spec.cache_key()

    def test_unknown_param_rejected_at_resolve(self):
        spec = ProblemSpec("table1", params={"bogus": 1})
        with pytest.raises(ServingError, match="bogus"):
            spec.resolved_params()

    def test_unknown_reduction_field_rejected(self):
        with pytest.raises(ServingError, match="reduction"):
            ProblemSpec("table1", reduction={"solver": "magic"})

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ServingError):
            ProblemSpec("table1", params={"rdf_nodes": [1, 2]})

    def test_non_finite_values_rejected(self):
        # json.loads admits NaN/Infinity; the canonical key must not.
        nan = json.loads('{"frequency": NaN}')["frequency"]
        with pytest.raises(ServingError, match="finite"):
            ProblemSpec("table1", params={"frequency": nan})
        with pytest.raises(ServingError, match="finite"):
            ProblemSpec("table1", reduction={"energy": float("inf")})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ServingError, match="unknown preset"):
            ProblemSpec("table9").resolved_params()

    def test_dict_round_trip(self):
        spec = tiny_spec()
        clone = ProblemSpec.from_dict(spec.to_dict())
        assert clone.cache_key() == spec.cache_key()

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ServingError):
            ProblemSpec.from_dict({"preset": "table1", "extra": 1})
        with pytest.raises(ServingError):
            ProblemSpec.from_dict({"params": {}})
        with pytest.raises(ServingError, match="version"):
            ProblemSpec.from_dict({"preset": "table1",
                                   "spec_version": 99})

    def test_build_problem_resolves(self):
        problem = tiny_spec().build_problem()
        assert isinstance(problem, VariationalProblem)
        assert problem.doping_group.size == 6
        signature = problem.spec_signature()
        assert signature["frequency"] == 1.0e9
        assert signature["groups"][0]["covariance_sha"]
        # The fingerprint is itself canonical-JSON-able.
        json.dumps(signature, sort_keys=True)

    def test_signature_distinguishes_drives(self):
        reference = tiny_spec().build_problem()
        halved = tiny_spec().build_problem()
        halved.excitations = {"plug1": 0.5, "plug2": 0.0}
        assert reference.spec_signature() != halved.spec_signature()


class TestStoreRoundTrip:
    def test_bitwise_round_trip(self, store, synthetic_record):
        key = store.save(synthetic_record)
        assert key == synthetic_record.cache_key
        assert key in store
        loaded = store.load(key)
        assert np.array_equal(loaded.pce.coefficients,
                              synthetic_record.pce.coefficients)
        assert loaded.pce.basis.dim == 3
        assert loaded.pce.basis.order == 2
        assert loaded.output_names == ["a", "b"]
        assert loaded.spec.cache_key() == key
        assert loaded.num_runs == 5
        assert loaded.reduction[0]["reduced_size"] == 1
        assert loaded.created_at > 0.0

    def test_clean_miss(self, store):
        key = "0" * 64
        assert store.get(key) is None
        with pytest.raises(ServingError, match="no surrogate"):
            store.load(key)

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ServingError, match="malformed"):
            store.get("../../etc/passwd")

    def test_payload_corruption_detected(self, store, synthetic_record):
        key = store.save(synthetic_record)
        payload = store.root / f"{key}.npz"
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.get(key)

    def test_truncated_sidecar_detected(self, store, synthetic_record):
        key = store.save(synthetic_record)
        sidecar = store.root / f"{key}.json"
        sidecar.write_text(sidecar.read_text()[:20])
        with pytest.raises(StoreCorruptionError):
            store.get(key)

    def test_stale_schema_rejected(self, store, synthetic_record):
        from repro.serving.store import SUPPORTED_SCHEMA_VERSIONS
        key = store.save(synthetic_record)
        sidecar = store.root / f"{key}.json"
        meta = json.loads(sidecar.read_text())
        meta["schema_version"] = max(SUPPORTED_SCHEMA_VERSIONS) + 1
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(StoreSchemaError, match="schema"):
            store.get(key)

    def test_edited_spec_detected(self, store, synthetic_record):
        key = store.save(synthetic_record)
        sidecar = store.root / f"{key}.json"
        meta = json.loads(sidecar.read_text())
        meta["spec"]["params"]["rdf_nodes"] = 99
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(StoreCorruptionError, match="edited"):
            store.get(key)

    def test_keys_and_delete(self, store, synthetic_record):
        key = store.save(synthetic_record)
        assert store.keys() == [key]
        store.delete(key)
        assert store.keys() == []
        assert key not in store

    def test_half_written_entry_is_invisible(self, store,
                                             synthetic_record):
        key = store.save(synthetic_record)
        (store.root / f"{key}.npz").unlink()
        assert store.keys() == []
        assert key not in store
        assert store.get(key) is None

    def test_no_tmp_litter_after_save(self, store, synthetic_record):
        store.save(synthetic_record)
        store.save(synthetic_record)
        assert list(store.root.glob("*.tmp")) == []

    def test_entry_survives_preset_evolution(self, store,
                                             synthetic_record,
                                             monkeypatch):
        """Reading must not re-resolve the spec against the *current*
        preset defaults: entries written before a preset gained a new
        parameter stay loadable under their original key."""
        from repro.serving import presets
        key = store.save(synthetic_record)
        old = presets._REGISTRY["table1"]
        monkeypatch.setitem(
            presets._REGISTRY, "table1",
            presets.Preset(name=old.name, description=old.description,
                           defaults={**old.defaults, "new_knob": 1.0},
                           build=old.build))
        loaded = store.load(key)
        np.testing.assert_array_equal(loaded.pce.coefficients,
                                      synthetic_record.pce.coefficients)


class TestEnsureSurrogate:
    @pytest.fixture()
    def solve_counter(self, monkeypatch):
        """Count every deterministic coupled solve (nominal included)."""
        from repro.solver.avsolver import AVSolver
        counter = {"count": 0}
        for name in ("solve", "solve_ports"):
            original = getattr(AVSolver, name)

            def counting(self, *args, _original=original, **kwargs):
                counter["count"] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(AVSolver, name, counting)
        return counter

    def test_build_then_hit(self, store, solve_counter):
        cold = ensure_surrogate(tiny_spec(), store)
        assert cold.built
        assert solve_counter["count"] > 0
        assert cold.num_solves == solve_counter["count"]

        solve_counter["count"] = 0
        warm = ensure_surrogate(tiny_spec(), store)
        assert not warm.built
        assert warm.num_solves == 0
        assert solve_counter["count"] == 0
        np.testing.assert_array_equal(warm.record.pce.coefficients,
                                      cold.record.pce.coefficients)

    def test_matches_direct_pipeline(self, store):
        spec = tiny_spec()
        report = ensure_surrogate(spec, store)
        direct = run_sscm_analysis(spec.build_problem(),
                                   **spec.analysis_kwargs())
        np.testing.assert_array_equal(report.record.pce.coefficients,
                                      direct.sscm.pce.coefficients)
        assert report.record.num_runs == direct.num_runs
        assert report.record.reduction == direct.reduction_metadata()

    def test_rebuild_forces_solves(self, store, solve_counter):
        ensure_surrogate(tiny_spec(), store)
        solve_counter["count"] = 0
        forced = ensure_surrogate(tiny_spec(), store, rebuild=True)
        assert forced.built
        assert solve_counter["count"] > 0

    def test_report_and_sidecar_timings_agree(self, store):
        report = ensure_surrogate(tiny_spec(), store)
        stored = store.sidecar(report.cache_key)["execution"]["timings"]
        for name in ("solve_s", "fit_s"):
            assert report.timings[name] == stored[name]
        assert report.timings["solve_s"] > 0.0

    def test_damaged_entry_self_heals(self, store, solve_counter):
        key = ensure_surrogate(tiny_spec(), store).cache_key
        payload = store.root / f"{key}.npz"
        payload.write_bytes(b"not an npz archive")
        solve_counter["count"] = 0
        healed = ensure_surrogate(tiny_spec(), store)
        assert healed.built
        assert healed.replaced_damaged
        assert solve_counter["count"] > 0
        assert store.get(key) is not None


class TestQueryEngine:
    @pytest.fixture(scope="class")
    def pce(self):
        rng = np.random.default_rng(3)
        basis = HermiteBasis(4)
        return QuadraticPCE(basis, rng.standard_normal((basis.size, 3)),
                            output_names=["x", "y", "z"])

    @pytest.fixture(scope="class")
    def engine(self, pce):
        return QueryEngine(pce, num_samples=20000, seed=11,
                           chunk_size=1024)

    def test_closed_form_moments(self, pce, engine):
        np.testing.assert_array_equal(engine.mean(), pce.mean)
        np.testing.assert_array_equal(engine.std(), pce.std)

    def test_quantiles_match_numpy_on_same_samples(self, engine):
        samples = engine.sample()
        q = [0.05, 0.5, 0.95]
        np.testing.assert_array_equal(
            engine.quantiles(q), np.quantile(samples, q, axis=0))

    def test_sample_matrix_is_cached_per_request(self, engine):
        first = engine.sample()
        assert engine.sample() is first          # same (m, seed) reused
        assert engine.sample(seed=99) is not first
        np.testing.assert_array_equal(engine.sample(), first)

    def test_yield_matches_numpy_on_same_samples(self, engine):
        samples = engine.sample()
        limit = engine.mean() + 0.5 * engine.std()
        np.testing.assert_array_equal(
            engine.yield_above(limit), (samples > limit).mean(axis=0))
        np.testing.assert_array_equal(
            engine.yield_below(limit), (samples <= limit).mean(axis=0))
        np.testing.assert_allclose(
            engine.yield_above(limit) + engine.yield_below(limit), 1.0)

    def test_sample_values_chunk_invariant(self, pce):
        a = pce.sample_values(np.random.default_rng(5), 3000,
                              chunk_size=256)
        b = pce.sample_values(np.random.default_rng(5), 3000,
                              chunk_size=3000)
        np.testing.assert_array_equal(a, b)

    def test_sample_statistics_tiny_relative_std(self):
        """One-pass accumulation must not cancel when std << |mean|."""
        basis = HermiteBasis(1)
        coefficients = np.array([[1.0], [1e-9], [0.0]])
        pce = QuadraticPCE(basis, coefficients)
        mean, std = pce.sample_statistics(np.random.default_rng(2),
                                          num_samples=20000,
                                          chunk_size=4096)
        assert mean[0] == pytest.approx(1.0, rel=1e-9)
        assert std[0] == pytest.approx(1e-9, rel=0.05)

    def test_sample_statistics_matches_two_pass(self, pce):
        mean, std = pce.sample_statistics(np.random.default_rng(9),
                                          num_samples=50000,
                                          chunk_size=4096)
        values = pce.sample_values(np.random.default_rng(9), 50000,
                                   chunk_size=4096)
        np.testing.assert_allclose(mean, values.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(std, values.std(axis=0, ddof=1),
                                   rtol=1e-8)

    def test_corner_of_linear_model(self):
        basis = HermiteBasis(2)
        coefficients = np.zeros((basis.size, 1))
        coefficients[0, 0] = 1.0
        # Linear rows follow the constant in the graded basis order.
        coefficients[1, 0] = 3.0
        coefficients[2, 0] = 4.0
        engine = QueryEngine(QuadraticPCE(basis, coefficients))
        corner = engine.corner(sigma=2.0)
        # Steepest direction has |gradient| = 5: 1 +/- 2 * 5.
        np.testing.assert_allclose(corner["high"], [11.0])
        np.testing.assert_allclose(corner["low"], [-9.0])

    def test_corner_of_constant_output(self):
        basis = HermiteBasis(2)
        coefficients = np.zeros((basis.size, 1))
        coefficients[0, 0] = 4.2
        engine = QueryEngine(QuadraticPCE(basis, coefficients))
        corner = engine.corner(sigma=3.0)
        np.testing.assert_allclose(corner["low"], [4.2])
        np.testing.assert_allclose(corner["high"], [4.2])

    def test_answer_round_trips_json(self, engine):
        queries = [
            {"kind": "mean"},
            {"kind": "std"},
            {"kind": "quantiles", "q": [0.5], "num_samples": 2000},
            {"kind": "yield_above", "limit": 0.0, "num_samples": 2000},
            {"kind": "corner", "sigma": 3.0},
            {"kind": "sample_statistics", "num_samples": 2000},
        ]
        for query in queries:
            answer = engine.answer(query)
            assert answer["kind"] == query["kind"]
            json.dumps(answer)

    def test_malformed_query_values_are_serving_errors(self, engine):
        with pytest.raises(ServingError, match="malformed"):
            engine.answer({"kind": "yield_above", "limit": "abc"})
        with pytest.raises(ServingError, match="malformed"):
            engine.answer({"kind": "quantiles", "q": ["oops"]})
        with pytest.raises(ServingError, match="malformed"):
            engine.answer({"kind": "corner", "sigma": "big"})
        with pytest.raises(ServingError, match="malformed"):
            engine.answer({"kind": "quantiles", "q": [0.5],
                           "num_samples": "many"})

    def test_bad_queries_rejected(self, engine):
        with pytest.raises(ServingError):
            engine.answer({"kind": "teleport"})
        with pytest.raises(ServingError):
            engine.answer({"kind": "quantiles"})
        with pytest.raises(ServingError):
            engine.answer({"kind": "yield_above"})
        with pytest.raises(ServingError):
            engine.quantiles([1.5])
        with pytest.raises(ServingError):
            QueryEngine(object())
        with pytest.raises(ServingError, match="chunk_size"):
            QueryEngine(engine.pce, chunk_size=0)
        with pytest.raises(ServingError, match="num_samples"):
            engine.yield_above(0.0, num_samples=0)
        with pytest.raises(StochasticError, match="chunk_size"):
            engine.pce.sample_values(np.random.default_rng(0), 10,
                                     chunk_size=0)
        with pytest.raises(StochasticError, match="chunk_size"):
            engine.pce.sample_statistics(np.random.default_rng(0), 10,
                                         chunk_size=-1)


class TestSampleBudget:
    """``num_samples`` arrives from the wire; past the cap it must be a
    per-request error before any sample is drawn, never an allocation
    that kills the daemon or a draw that holds a thread for hours."""

    KINDS = ({"kind": "quantiles", "q": [0.5]},
             {"kind": "yield_above", "limit": 0.0},
             {"kind": "yield_below", "limit": 0.0},
             {"kind": "sample_statistics"})

    @pytest.fixture()
    def draws(self, monkeypatch):
        from repro.stochastic.pce import PolynomialChaos
        calls = []
        for name in ("sample_values", "sample_chunks"):
            original = getattr(PolynomialChaos, name)

            def counting(self, *args, _original=original, **kwargs):
                calls.append(args)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(PolynomialChaos, name, counting)
        return calls

    def test_oversized_counts_are_request_errors(self, store, draws):
        from repro.serving.query import MAX_NUM_SAMPLES

        basis = HermiteBasis(2)
        spec = ProblemSpec(preset="table2", params={"margin_um": 2.5})
        store.save(SurrogateRecord(
            pce=QuadraticPCE(basis, np.ones((basis.size, 1))), spec=spec))
        for num_samples in (1e12, MAX_NUM_SAMPLES + 1):
            for query in self.KINDS:
                result = serve_batch(
                    {"spec": spec.to_dict(),
                     "queries": [{**query, "num_samples": num_samples}]},
                    store, build_missing=False)
                (response,) = result["responses"]
                assert "exceeds the limit" in response["error"]
        assert draws == []

    def test_engine_default_is_capped_too(self):
        from repro.serving.query import MAX_NUM_SAMPLES

        basis = HermiteBasis(1)
        pce = QuadraticPCE(basis, np.ones((basis.size, 1)))
        with pytest.raises(ServingError, match="exceeds the limit"):
            QueryEngine(pce, num_samples=MAX_NUM_SAMPLES + 1)
        with pytest.raises(ServingError, match="exceeds the limit"):
            QueryEngine(pce).quantiles([0.5], num_samples=float("nan"))


class TestServeBatch:
    def test_batch_and_error_isolation(self, store):
        good = {"spec": tiny_spec().to_dict(),
                "queries": [{"kind": "mean"},
                            {"kind": "quantiles", "q": [0.5],
                             "num_samples": 2000}]}
        bad = {"spec": {"preset": "table9"}, "queries": []}
        result = serve_batch({"requests": [good, bad]}, store)
        ok, err = result["responses"]
        assert ok["built"] and ok["output_names"] == ["J_interface"]
        assert len(ok["answers"]) == 2
        assert "unknown preset" in err["error"]
        json.dumps(result)

    def test_build_failure_isolated_too(self, store):
        """Library errors below the serving layer (here a MeshError from
        an unbuildable structure) fail their request, not the batch."""
        broken = {"spec": {"preset": "table2",
                           "params": {"max_step_um": -1.0}},
                  "queries": [{"kind": "mean"}]}
        good = {"spec": tiny_spec().to_dict(),
                "queries": [{"kind": "mean"}]}
        result = serve_batch({"requests": [broken, good]}, store)
        assert "error" in result["responses"][0]
        assert result["responses"][1]["built"]

    def test_no_build_misses_are_errors(self, store):
        request = {"spec": tiny_spec().to_dict(),
                   "queries": [{"kind": "mean"}]}
        result = serve_batch(request, store, build_missing=False)
        assert "error" in result["responses"][0]


class TestMonteCarloPreallocation:
    def test_statistics_unchanged(self):
        def sample_fn(rng):
            return rng.standard_normal(3) + [1.0, 2.0, 3.0]

        result = run_monte_carlo(sample_fn, 500, seed=4)
        np.testing.assert_allclose(result.mean, [1.0, 2.0, 3.0],
                                   atol=0.2)
        assert result.samples is None

    def test_keep_samples_matrix(self):
        result = run_monte_carlo(lambda rng: rng.standard_normal(2),
                                 50, seed=1, keep_samples=True)
        assert result.samples.shape == (50, 2)
        assert result.samples.flags.owndata

    def test_row_vector_samples_still_accepted(self):
        """(1, k) row vectors worked with the old vstack path."""
        result = run_monte_carlo(
            lambda rng: rng.standard_normal((1, 3)), 20, seed=3,
            keep_samples=True)
        assert result.samples.shape == (20, 3)

    def test_inconsistent_width_rejected(self):
        widths = iter([2, 3])

        def sample_fn(rng):
            return np.zeros(next(widths))

        with pytest.raises(StochasticError, match="shape"):
            run_monte_carlo(sample_fn, 2, seed=0)
