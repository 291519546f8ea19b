"""Tests of the surrogate store & query-serving subsystem.

Store round-trips must be bitwise-faithful (a surrogate is a set of
float coefficients — any drift is silent statistical corruption), cache
keys must be stable across processes, and the query engine's sampled
answers must agree exactly with direct NumPy on the same samples.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.problem import VariationalProblem
from repro.analysis.runner import run_sscm_analysis
from repro.errors import (
    ServingError,
    StochasticError,
    StoreCorruptionError,
    StoreSchemaError,
)
from repro.experiments import table1_spec, table2_spec
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer, activate
from repro.serving import query as query_module
from repro.serving import store as store_module
from repro.serving import (
    ProblemSpec,
    QueryEngine,
    SurrogateRecord,
    SurrogateStore,
    ensure_surrogate,
    serve_batch,
)
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.montecarlo import run_monte_carlo
from repro.stochastic.pce import DEFAULT_CHUNK_SIZE, PolynomialChaos

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
    pce = PolynomialChaos(basis, rng.standard_normal((basis.size, 2)),
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

    def test_reference_cache_keys_are_pinned(self):
        """Stored surrogates and the benchmark refs are filed under
        these keys: any identity change, including an execution-only
        setting leaking into a canonical form, must show here.
        Tracing is execution-only and must not move them."""
        def reference_specs():
            reduction = {"caps": {"doping": 3}, "energy": 0.99}
            adaptive = {"tol": 1e-5, "max_level": 2}
            return [
                table1_spec("doping", reduction=reduction,
                            max_step_um=2.0, rdf_nodes=8),
                table1_spec("doping",
                            reduction={**reduction, "adaptive": adaptive},
                            max_step_um=2.0, rdf_nodes=8),
                table2_spec(),
            ]

        keys = [
            "deb3492df0bf8fbccecf9bfcf2f2d5cb0587a60ca0560b147ee8da99c86b7066",
            "ca4c46ee98694a1f0f4fb09e36f88aad5668ed67f09ebb82734ecb78f50cef9f",
            "8c72527f4c746b17f6983d51a2d422b6328d18784e2abbddc63e551900f884c9",
        ]
        assert [spec.cache_key() for spec in reference_specs()] == keys
        with activate(Tracer()):
            assert [spec.cache_key()
                    for spec in reference_specs()] == keys

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

    def test_retired_spec_setting_reads_as_stale(self, store,
                                                 synthetic_record):
        """An intact entry whose stored spec names a setting this build
        no longer accepts (here the retired ``solver`` block, in the
        canonical form older builds wrote) is listed, answered as a
        per-member error and evicted like any other entry — never a
        crash."""
        import hashlib

        from repro.campaign.query import query_campaign
        from repro.daemon.gc import run_gc
        from repro.serving.spec import canonical_json
        valid = store.save(synthetic_record)
        meta = json.loads((store.root / f"{valid}.json").read_text())
        stale_spec = json.loads(json.dumps(meta["spec"]))
        stale_spec["reduction"]["solver"] = {
            "backend": "krylov", "tol": 1e-10, "maxiter": 200,
            "method": "gmres"}
        stale = hashlib.sha256(
            canonical_json(stale_spec).encode("utf-8")).hexdigest()
        older = meta["created_at"] - 100.0
        meta.update(cache_key=stale, spec=stale_spec, created_at=older,
                    last_used=older)
        (store.root / f"{stale}.npz").write_bytes(
            (store.root / f"{valid}.npz").read_bytes())
        (store.root / f"{stale}.json").write_text(canonical_json(meta))
        # last_used is the sidecar's mtime: the older entry goes first.
        os.utime(store.root / f"{stale}.json", (older, older))

        listed = {row["key"]: row for row in store.inventory()}
        assert set(listed) == {valid, stale}
        assert "damaged" not in listed[stale]
        with pytest.raises(StoreSchemaError, match="solver"):
            store.get(stale)

        catalog = {"campaign": "c", "members": [
            {"key": stale, "params": {}, "status": "built"},
            {"key": valid, "params": {}, "status": "built"}]}
        rows = query_campaign(catalog, store, [{"kind": "mean"}],
                              num_samples=64)["members"]
        assert "solver" in rows[0]["error"]
        assert "answers" in rows[1]

        report = run_gc(store, max_entries=1)
        assert report["evicted"] == [stale]
        assert store.keys() == [valid]

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
        old = presets._PRESETS["table1"]
        monkeypatch.setitem(
            presets._PRESETS, "table1",
            presets.Preset(name=old.name, description=old.description,
                           defaults={**old.defaults, "new_knob": 1.0},
                           build=old.build))
        loaded = store.load(key)
        np.testing.assert_array_equal(loaded.pce.coefficients,
                                      synthetic_record.pce.coefficients)


class TestLastUsedStamp:
    """An entry's ``last_used`` is its sidecar's mtime: ``save`` sets it
    to ``created_at`` and a hit moves it with one ``os.utime``."""

    def test_save_stamps_created_at(self, store, synthetic_record):
        key = store.save(dataclasses.replace(synthetic_record,
                                             created_at=1.5e9))
        stat = (store.root / f"{key}.json").stat()
        assert stat.st_mtime_ns == 1_500_000_000 * 10**9
        (row,) = store.inventory()
        assert row["last_used"] == row["created_at"] == 1.5e9

    def test_hit_writes_no_file(self, store, synthetic_record,
                                monkeypatch):
        key = store.save(synthetic_record)
        sidecar_path = store.root / f"{key}.json"
        names = sorted(path.name for path in store.root.iterdir())
        sidecar, stat = sidecar_path.read_bytes(), sidecar_path.stat()
        mkstemp = mock.Mock(wraps=tempfile.mkstemp)
        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        report = ensure_surrogate(tiny_spec(), store)
        assert (report.cache_key, report.built) == (key, False)
        hit = sidecar_path.stat()
        assert sidecar_path.read_bytes() == sidecar
        assert hit.st_ino == stat.st_ino
        assert hit.st_mtime_ns >= stat.st_mtime_ns
        assert not mkstemp.called
        assert sorted(path.name for path in store.root.iterdir()) == names
        (row,) = store.inventory()
        assert row["last_used"] == hit.st_mtime_ns / 10**9

    def test_touch_racing_a_save_keeps_the_new_sidecar(
            self, store, synthetic_record, monkeypatch):
        """A hit's stamp, stalled right before its write while a save
        of the same key lands, never puts the old sidecar back."""
        key = store.save(synthetic_record)
        old = synthetic_record.pce
        rebuilt = dataclasses.replace(synthetic_record, pce=PolynomialChaos(
            old.basis, old.coefficients + 1.0, output_names=["a", "b"]))
        reached, saved = threading.Event(), threading.Event()
        toucher = threading.Thread(target=store.touch, args=(key,))

        def stalled(write):
            def write_after_the_save(*args, **kwargs):
                if threading.current_thread() is toucher:
                    reached.set()
                    saved.wait(10.0)
                return write(*args, **kwargs)
            return write_after_the_save

        # Stall whichever write the stamp makes: an os.utime, or the
        # sidecar rewrite of a stamp kept inside the JSON.
        monkeypatch.setattr(os, "utime", stalled(os.utime))
        monkeypatch.setattr(SurrogateStore, "_atomic_write",
                            stalled(SurrogateStore._atomic_write))
        toucher.start()
        try:
            assert reached.wait(10.0)
            store.save(rebuilt)
        finally:
            saved.set()
            toucher.join(10.0)
        loaded = store.get(key)
        np.testing.assert_array_equal(loaded.pce.coefficients,
                                      rebuilt.pce.coefficients)


def _decodes() -> float:
    return REGISTRY.counter("repro_store_payload_decodes_total").value()


class TestDecodedPayloads:
    """A store hit decodes only payload bytes this process has not
    decoded before, and still verifies every byte it reads."""

    @pytest.fixture()
    def cache(self, monkeypatch):
        cache = store_module.BudgetLRU(store_module.DECODED_PAYLOAD_BYTES)
        monkeypatch.setattr(store_module, "DECODED_PAYLOADS", cache)
        return cache

    @staticmethod
    def _record(scale=1.0, **params):
        basis = HermiteBasis(2)
        coefficients = scale * np.arange(basis.size * 2.0).reshape(-1, 2)
        return SurrogateRecord(
            pce=PolynomialChaos(basis, coefficients,
                                output_names=["a", "b"]),
            spec=ProblemSpec(preset="table2", params=params,
                             reduction={}))

    def test_damage_after_a_cached_decode_still_raises(self, store,
                                                       cache):
        key = store.save(self._record(margin_um=1.0))
        store.get(key)
        payload = store.root / f"{key}.npz"
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.get(key)
        # An intact payload under an edited sidecar spec fails too.
        other = store.save(self._record(margin_um=2.0))
        store.get(other)
        sidecar = store.root / f"{other}.json"
        meta = json.loads(sidecar.read_text())
        meta["spec"]["params"]["margin_um"] = 3.0
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(StoreCorruptionError, match="edited"):
            store.get(other)

    def test_identical_payloads_under_two_keys_decode_once(self, store,
                                                           cache):
        first = store.save(self._record(margin_um=1.0))
        second = store.save(self._record(margin_um=2.0))
        before = _decodes()
        records = [store.get(key) for key in (first, second, first)]
        assert _decodes() == before + 1
        assert records[0].pce is records[1].pce is records[2].pce
        assert [r.spec.cache_key() for r in records] \
            == [first, second, first]

    def test_rewrite_under_one_key_decodes_anew(self, store, cache):
        key = store.save(self._record(margin_um=1.0))
        old = store.get(key).pce.coefficients
        before = _decodes()
        assert store.save(self._record(3.0, margin_um=1.0)) == key
        np.testing.assert_array_equal(store.get(key).pce.coefficients,
                                      3.0 * old)
        assert _decodes() == before + 1

    def test_cached_arrays_are_read_only(self, store, cache):
        key = store.save(self._record(margin_um=1.0))
        pce = store.get(key).pce
        with pytest.raises(ValueError, match="read-only"):
            pce.coefficients[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            pce.basis.norms_squared[0] = 7.0
        np.testing.assert_array_equal(store.get(key).pce.coefficients,
                                      self._record().pce.coefficients)

    def test_lru_within_budget(self, store, monkeypatch):
        keys = [store.save(self._record(1.0 + i, margin_um=float(i)))
                for i in range(3)]
        sizes = {(store.root / f"{key}.npz").stat().st_size
                 for key in keys}
        (size,) = sizes
        cache = store_module.BudgetLRU(2 * size + 7)
        monkeypatch.setattr(store_module, "DECODED_PAYLOADS", cache)
        first, second, third = keys
        before = _decodes()
        for key in (first, second, first, third):  # second goes first
            store.get(key)
            assert cache.nbytes <= cache.budget_bytes
        assert _decodes() == before + 3
        store.get(first)
        store.get(third)
        assert _decodes() == before + 3
        store.get(second)
        assert _decodes() == before + 4 and cache.nbytes == 2 * size


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
        original_samples = AVSolver.solve_samples

        def counting_samples(self, *args, **kwargs):
            for answer in original_samples(self, *args, **kwargs):
                counter["count"] += 1
                yield answer

        monkeypatch.setattr(AVSolver, "solve_samples", counting_samples)
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
        return PolynomialChaos(basis, rng.standard_normal((basis.size, 3)),
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
        pce = PolynomialChaos(basis, coefficients)
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
        engine = QueryEngine(PolynomialChaos(basis, coefficients))
        corner = engine.corner(sigma=2.0)
        # Steepest direction has |gradient| = 5: 1 +/- 2 * 5.
        np.testing.assert_allclose(corner["high"], [11.0])
        np.testing.assert_allclose(corner["low"], [-9.0])

    def test_corner_of_constant_output(self):
        basis = HermiteBasis(2)
        coefficients = np.zeros((basis.size, 1))
        coefficients[0, 0] = 4.2
        engine = QueryEngine(PolynomialChaos(basis, coefficients))
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


class _HoledChaos(PolynomialChaos):
    """A chaos whose last output is NaN wherever ``zeta_0 > 2``."""

    def evaluate(self, zeta):
        values = super().evaluate(zeta)
        values[zeta[:, 0] > 2.0, -1] = np.nan
        return values


def _bank_counts() -> tuple:
    return tuple(REGISTRY.counter(f"repro_sample_bank_{name}_total").value()
                 for name in ("hits", "misses", "evictions"))


class TestSampleBank:
    """Repeated quantile streams are read from the process-level sample
    bank as sorted columns; every answer stays bitwise what
    ``np.quantile`` and the streaming yield count give on a raw draw."""

    M = 2001  # (M - 1) * q is an exact order statistic at q = k / 4

    @pytest.fixture(scope="class")
    def pce(self):
        rng = np.random.default_rng(13)
        basis = HermiteBasis(3)
        return PolynomialChaos(basis, rng.standard_normal((basis.size, 3)))

    @pytest.fixture(scope="class")
    def holed(self, pce):
        # Coefficients of its own: an equal plain chaos would share the
        # holed one's banked streams.
        engine = QueryEngine(_HoledChaos(pce.basis, -pce.coefficients),
                             num_samples=self.M, seed=4, chunk_size=256)
        raw = engine.sample()
        assert np.isnan(raw[:, -1]).any() and not np.isnan(raw[:, :-1]).any()
        return engine, raw

    @pytest.fixture()
    def bank(self, monkeypatch):
        bank = query_module.SampleBank()
        monkeypatch.setattr(query_module, "SAMPLE_BANK", bank)
        return bank

    @pytest.fixture()
    def draws(self, monkeypatch):
        calls = []
        original = PolynomialChaos.sample_chunks

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PolynomialChaos, "sample_chunks", counting)
        return calls

    @given(levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @example(levels=[0.0, 1.0])
    @example(levels=[0.25, 0.5, 0.75])
    @example(levels=[0.5 / (M - 1), 1.5 / (M - 1), 1.0 - 0.5 / (M - 1)])
    @settings(max_examples=60, deadline=None)
    def test_quantiles_bitwise_numpy(self, holed, levels):
        engine, raw = holed
        answer = engine.quantiles(levels)
        np.testing.assert_array_equal(
            answer, np.quantile(raw, levels, axis=0))
        assert np.isnan(answer[:, -1]).all()

    def test_banked_yields_equal_streaming_counts(self, holed, bank,
                                                  draws):
        engine, raw = holed
        ties = raw[17]
        limits = [engine.mean(), ties, [np.nan, np.inf, -np.inf],
                  [raw[:, 0].min(), np.median(raw[:, 1]), 0.0]]
        streamed = [(engine.yield_above(limit), engine.yield_below(limit))
                    for limit in limits]
        assert bank.nbytes == 0          # yields never bank a stream
        engine.quantiles([0.5])
        hits, drawn = _bank_counts()[0], len(draws)
        for limit, (above, below) in zip(limits, streamed):
            np.testing.assert_array_equal(engine.yield_above(limit), above)
            np.testing.assert_array_equal(engine.yield_below(limit), below)
            np.testing.assert_array_equal(
                above, (raw > np.asarray(limit, dtype=float)).mean(axis=0))
        assert _bank_counts()[0] == hits + 2 * len(limits)
        assert len(draws) == drawn       # banked yields draw nothing

    def test_equal_surrogates_share_one_draw(self, pce, bank, draws):
        twin = PolynomialChaos(pce.basis, pce.coefficients.copy())
        first = QueryEngine(pce, num_samples=self.M, seed=8)
        second = QueryEngine(twin, num_samples=self.M, seed=8)
        hits, misses, _ = _bank_counts()
        answer = first.quantiles([0.1, 0.9])
        np.testing.assert_array_equal(second.quantiles([0.1, 0.9]), answer)
        assert len(draws) == 1
        assert _bank_counts()[:2] == (hits + 1, misses + 1)
        # sample() draws afresh; it never hands out the banked columns.
        np.testing.assert_array_equal(
            np.quantile(first.sample(), [0.1, 0.9], axis=0), answer)
        assert len(draws) == 2

    def test_other_coefficients_under_one_key_draw_anew(self, bank, draws,
                                                        synthetic_record):
        rebuilt = SurrogateRecord(
            pce=PolynomialChaos(synthetic_record.pce.basis,
                                2.0 * synthetic_record.pce.coefficients),
            spec=synthetic_record.spec)
        assert rebuilt.cache_key == synthetic_record.cache_key
        old = QueryEngine(synthetic_record, num_samples=self.M)
        new = QueryEngine(rebuilt, num_samples=self.M)
        np.testing.assert_array_equal(
            new.quantiles([0.3]), 2.0 * old.quantiles([0.3]))
        assert len(draws) == 2

    def test_streams_of_other_chunk_sizes_are_not_shared(self, bank):
        """GEMM rows are not bitwise independent of the block height, so
        a stream banked at one chunk size never answers another's
        query: each answer stays ``np.quantile`` of its own draw."""
        basis = HermiteBasis(3, order=4)
        pce = PolynomialChaos(basis, np.random.default_rng(1)
                              .standard_normal((basis.size, 2)))
        levels = np.linspace(0.0, 1.0, 41)
        for chunk_size in (1024, DEFAULT_CHUNK_SIZE):
            engine = QueryEngine(pce, chunk_size=chunk_size)
            np.testing.assert_array_equal(
                engine.quantiles(levels, num_samples=40000, seed=1),
                np.quantile(engine.sample(40000, 1), levels, axis=0))

    def test_lru_eviction_within_budget(self, pce, monkeypatch, draws):
        engine = QueryEngine(pce, num_samples=self.M)
        stream_bytes = self.M * pce.output_dim * 8
        bank = query_module.SampleBank(budget_bytes=2 * stream_bytes + 7)
        monkeypatch.setattr(query_module, "SAMPLE_BANK", bank)
        evictions = _bank_counts()[2]
        for seed in (1, 2, 1, 3):      # 1 is used again, so 2 goes first
            engine.quantiles([0.5], seed=seed)
            assert bank.nbytes <= bank.budget_bytes
        assert len(draws) == 3
        assert _bank_counts()[2] == evictions + 1
        engine.quantiles([0.5], seed=1)
        engine.quantiles([0.5], seed=3)
        assert len(draws) == 3
        engine.quantiles([0.5], seed=2)
        assert len(draws) == 4 and bank.nbytes == 2 * stream_bytes

    def test_stream_over_budget_is_answered_not_banked(self, pce,
                                                       monkeypatch, draws):
        engine = QueryEngine(pce, num_samples=self.M)
        bank = query_module.SampleBank(
            budget_bytes=self.M * pce.output_dim * 8 - 1)
        monkeypatch.setattr(query_module, "SAMPLE_BANK", bank)
        for _ in range(2):
            np.testing.assert_array_equal(
                engine.quantiles([0.2, 0.7]),
                np.quantile(engine.sample(), [0.2, 0.7], axis=0))
        assert bank.nbytes == 0
        assert len(draws) == 4         # two answers, two raw draws

    def test_concurrent_cold_misses_agree(self, pce, bank):
        engines = [QueryEngine(pce, num_samples=20000, seed=21)
                   for _ in range(8)]
        answers = [None] * len(engines)

        def ask(index):
            answers[index] = engines[index].quantiles([0.05, 0.5, 0.95])

        threads = [threading.Thread(target=ask, args=(index,))
                   for index in range(len(engines))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = np.quantile(engines[0].sample(), [0.05, 0.5, 0.95],
                               axis=0)
        for answer in answers:
            np.testing.assert_array_equal(answer, expected)
        assert bank.nbytes == 20000 * pce.output_dim * 8


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
            pce=PolynomialChaos(basis, np.ones((basis.size, 1))), spec=spec))
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
        pce = PolynomialChaos(basis, np.ones((basis.size, 1)))
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


class TestUnwritableStore:
    def test_hits_skip_the_stamp(self, store, synthetic_record,
                                 monkeypatch):
        """A store this process cannot write still answers its hits:
        the ``last_used`` stamp (the hit's one write, an
        ``os.utime``) is skipped, the read is not failed."""
        key = store.save(synthetic_record)
        sidecar_path = store.root / f"{key}.json"
        sidecar, stat = sidecar_path.read_bytes(), sidecar_path.stat()
        utime = mock.Mock(
            side_effect=PermissionError(13, "Permission denied"))
        monkeypatch.setattr(os, "utime", utime)
        request = {"spec": tiny_spec().to_dict(),
                   "queries": [{"kind": "mean"}]}
        (response,) = serve_batch(request, store,
                                  build_missing=False)["responses"]
        assert (response["cache_key"], response["built"],
                response["num_solves"]) == (key, False, 0)
        assert len(response["answers"]) == 1
        report = ensure_surrogate(tiny_spec(), store)
        assert (report.cache_key, report.built,
                report.num_solves) == (key, False, 0)
        assert utime.call_count == 2
        assert sidecar_path.read_bytes() == sidecar
        assert sidecar_path.stat().st_mtime_ns == stat.st_mtime_ns


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
