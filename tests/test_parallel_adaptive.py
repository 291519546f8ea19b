"""Tests for parallel wave evaluation and warm-started refinement.

Two halves of the same production story: adaptive builds that fan each
refinement wave over worker processes with *bitwise-identical* results,
and adaptive builds seeded from a stored sibling surrogate that reach
the tolerance at strictly fewer solves than a cold build.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.adaptive import AdaptiveConfig, WarmStart, run_adaptive_sscm
from repro.errors import ServingError, StochasticError
from repro.units import um

D = 8
TOL = 1e-4


def _anisotropic(scale_b=1.0, scale_a=1.0):
    """Quadratic QoI where directions 0 and 1 carry the variance."""
    A = np.zeros((D, D))
    A[0, 0], A[1, 1] = 1.5 * scale_a, 0.8 * scale_a
    A[0, 1] = A[1, 0] = 0.4 * scale_a
    b = np.zeros(D)
    b[0], b[1] = 1.0 * scale_b, 0.5 * scale_b
    for i in range(2, D):
        A[i, i] = 1e-6
        b[i] = 1e-6

    def f(z):
        return np.array([3.0 + b @ z + z @ A @ z])

    std = np.sqrt(b @ b + 2.0 * np.sum(A * A))
    return f, std


def _builder():
    from repro.experiments import Table1Config, table1_problem
    from repro.geometry import MetalPlugDesign

    return table1_problem("doping", Table1Config(
        design=MetalPlugDesign(max_step=um(2.0)), rdf_nodes=8))


class TestAdaptiveConfigWorkers:
    def test_workers_validated(self):
        """The worker count is a build argument, not a config field:
        every spelling of it is rejected."""
        with pytest.raises(TypeError):
            AdaptiveConfig(workers=4)
        for data in ({"tol": 1e-3, "workers": 2.0}, {"workers": None},
                     {"wrokers": 2}):
            with pytest.raises(StochasticError, match="unknown"):
                AdaptiveConfig.from_dict(data)

    def test_to_dict_excludes_workers_by_default(self):
        config = AdaptiveConfig(tol=1e-3)
        assert "workers" not in config.to_dict()
        with pytest.raises(TypeError):
            config.to_dict(include_workers=True)


class TestSpecWorkersNotInCacheKey:
    def _spec(self, adaptive):
        from repro.experiments import table2_spec
        return table2_spec(adaptive=adaptive, rdf_nodes=8)

    def test_same_cache_key_any_worker_count(self):
        """No worker count can reach a key: a spec naming one is
        rejected outright."""
        with pytest.raises(ServingError, match="workers"):
            self._spec({"tol": 1e-3, "workers": 4})
        plain = self._spec({"tol": 1e-3})
        assert "workers" not in plain.canonical()["reduction"]["adaptive"]

    def test_different_stopping_controls_still_split_keys(self):
        assert self._spec({"tol": 1e-3}).cache_key() \
            != self._spec({"tol": 1e-4}).cache_key()


class TestWarmStartSeed:
    def test_from_refinement_roundtrip(self):
        f, _ = _anisotropic()
        cold = run_adaptive_sscm(f, D, AdaptiveConfig(tol=TOL,
                                                      max_level=2))
        meta = cold.refinement_metadata()
        seed = WarmStart.from_refinement(meta, source="abc")
        assert seed.source == "abc"
        assert (0,) * D in seed.indices
        assert set(seed.indices) == {tuple(ix) for ix in
                                     meta["accepted"]}
        assert seed.frontier_error == meta["error_estimate"]
        assert all(indicator >= 0.0
                   for indicator in seed.indicators.values())

    def test_from_refinement_requires_indices(self):
        with pytest.raises(StochasticError):
            WarmStart.from_refinement({"trace": []})
        with pytest.raises(StochasticError):
            WarmStart.from_refinement("not a mapping")

    def test_metadata_is_json_serializable(self):
        f, _ = _anisotropic()
        cold = run_adaptive_sscm(f, D, AdaptiveConfig(tol=TOL,
                                                      max_level=2))
        warm = run_adaptive_sscm(
            f, D, AdaptiveConfig(tol=TOL, max_level=2),
            warm_start=WarmStart.from_refinement(
                cold.refinement_metadata(), source="k"))
        round_tripped = json.loads(
            json.dumps(warm.refinement_metadata()))
        assert round_tripped["warm_start_source"] == "k"
        assert round_tripped["accepted_indicators"]


class TestWarmStartedRefinement:
    def _cold(self, f=None):
        if f is None:
            f, _ = _anisotropic()
        return run_adaptive_sscm(f, D, AdaptiveConfig(tol=TOL,
                                                      max_level=2))

    def test_replay_certifies_at_fewer_solves(self):
        f, exact_std = _anisotropic()
        cold = self._cold(f)
        seed = WarmStart.from_refinement(cold.refinement_metadata(),
                                         source="src")
        warm = run_adaptive_sscm(f, D,
                                 AdaptiveConfig(tol=TOL, max_level=2),
                                 warm_start=seed)
        assert warm.termination == "warm"
        assert warm.converged
        assert warm.num_runs < cold.num_runs
        assert warm.warm["used"] and warm.warm["certified"]
        assert warm.refinement_metadata()["warm_start_source"] == "src"
        assert warm.std[0] == pytest.approx(exact_std, rel=1e-3)

    def test_perturbed_problem_fewer_solves_matched_accuracy(self):
        f, _ = _anisotropic()
        cold = self._cold(f)
        seed = WarmStart.from_refinement(cold.refinement_metadata(),
                                         source="src")
        f2, exact_std2 = _anisotropic(scale_b=1.07, scale_a=1.04)
        cold2 = self._cold(f2)
        warm2 = run_adaptive_sscm(f2, D,
                                  AdaptiveConfig(tol=TOL, max_level=2),
                                  warm_start=seed)
        assert warm2.num_runs < cold2.num_runs
        assert warm2.std[0] == pytest.approx(exact_std2, rel=1e-3)
        # Warm fits omit the (sub-tol) frontier surpluses, so the two
        # builds agree to the configured tolerance, not bitwise.
        assert warm2.mean[0] == pytest.approx(cold2.mean[0], rel=TOL)

    def test_dimension_mismatch_degrades_to_cold_bitwise(self):
        f, _ = _anisotropic()
        cold = self._cold(f)
        seed = WarmStart(indices=((0, 0), (1, 0)), frontier_error=0.0)
        warm = run_adaptive_sscm(f, D,
                                 AdaptiveConfig(tol=TOL, max_level=2),
                                 warm_start=seed)
        assert warm.warm["used"] is False
        assert "dim" in warm.warm["reason"]
        assert warm.num_runs == cold.num_runs
        assert np.array_equal(warm.pce.coefficients,
                              cold.pce.coefficients)

    def test_root_only_seed_degrades_to_cold(self):
        """A source that certified at its first frontier has nothing
        to seed; reporting it as a warm start would attribute
        nonexistent savings to it."""
        f, _ = _anisotropic()
        cold = self._cold(f)
        root_only = WarmStart(indices=((0,) * D,),
                              frontier_error=1e-6,
                              source="rootsrc")
        warm = run_adaptive_sscm(f, D,
                                 AdaptiveConfig(tol=TOL, max_level=2),
                                 warm_start=root_only)
        assert warm.warm["used"] is False
        assert "root" in warm.warm["reason"]
        assert warm.refinement_metadata()["warm_start_source"] is None
        assert warm.num_runs == cold.num_runs
        assert np.array_equal(warm.pce.coefficients,
                              cold.pce.coefficients)

    def test_non_downward_closed_seed_degrades_to_cold(self):
        f, _ = _anisotropic()
        broken = ((0,) * D, (2,) + (0,) * (D - 1))  # missing level 1
        warm = run_adaptive_sscm(
            f, D, AdaptiveConfig(tol=TOL, max_level=2),
            warm_start=WarmStart(indices=broken, frontier_error=0.0))
        assert warm.warm["used"] is False
        assert "downward-closed" in warm.warm["reason"]

    def test_budget_overflow_degrades_to_cold(self):
        f, _ = _anisotropic()
        cold = self._cold(f)
        seed = WarmStart.from_refinement(cold.refinement_metadata())
        warm = run_adaptive_sscm(
            f, D, AdaptiveConfig(tol=TOL, max_level=2, max_solves=3),
            warm_start=seed)
        assert warm.warm["used"] is False
        assert "max_solves" in warm.warm["reason"]
        assert warm.num_runs <= 3

    def test_seeds_above_level_cap_are_filtered(self):
        f, _ = _anisotropic()
        cold = run_adaptive_sscm(f, D, AdaptiveConfig(tol=TOL,
                                                      max_level=3))
        seed = WarmStart.from_refinement(cold.refinement_metadata())
        warm = run_adaptive_sscm(f, D,
                                 AdaptiveConfig(tol=TOL, max_level=1),
                                 warm_start=seed)
        assert warm.warm["used"] is True
        assert all(sum(index) <= 1 for index in warm.indices)

    def test_uncertifiable_seed_reopens_frontier(self):
        f, _ = _anisotropic()
        cold = self._cold(f)
        good = WarmStart.from_refinement(cold.refinement_metadata())
        doubtful = WarmStart(indices=good.indices,
                             frontier_error=float("inf"),
                             indicators=good.indicators)
        warm = run_adaptive_sscm(f, D,
                                 AdaptiveConfig(tol=TOL, max_level=2),
                                 warm_start=doubtful)
        assert warm.warm["used"] is True
        assert warm.warm["certified"] is False
        assert warm.termination in ("tol", "exhausted")
        # Re-opened frontier re-derives the cold build's final set.
        assert warm.num_runs == cold.num_runs
        np.testing.assert_allclose(warm.std, cold.std, rtol=1e-12)

    def test_warm_start_through_solve_many(self):
        f, _ = _anisotropic()
        cold = self._cold(f)
        seed = WarmStart.from_refinement(cold.refinement_metadata())

        def batch(points):
            return np.vstack([f(point) for point in points])

        warm = run_adaptive_sscm(f, D,
                                 AdaptiveConfig(tol=TOL, max_level=2),
                                 solve_many=batch, warm_start=seed)
        reference = run_adaptive_sscm(
            f, D, AdaptiveConfig(tol=TOL, max_level=2),
            warm_start=seed)
        assert warm.termination == "warm"
        assert np.array_equal(warm.pce.coefficients,
                              reference.pce.coefficients)

    def test_warm_start_requires_refinement_in_runner(self):
        from repro.analysis import run_sscm_analysis

        with pytest.raises(StochasticError):
            run_sscm_analysis(_builder(),
                              warm_start=WarmStart(indices=((0, 0),),
                                                   frontier_error=0.0))


class TestParallelWaveEvaluator:
    def test_workers_require_problem_builder(self):
        from repro.analysis import run_sscm_analysis

        with pytest.raises(StochasticError):
            run_sscm_analysis(
                _builder(), energy=1.0,
                max_variables_by_group={"doping": 2},
                refinement=AdaptiveConfig(tol=1e-3, max_level=2),
                workers=2)

    def test_evaluator_validates_worker_count(self):
        from repro.analysis import ParallelWaveEvaluator

        with pytest.raises(StochasticError):
            ParallelWaveEvaluator(_builder, object(), num_workers=0,
                                  problem=_RowSums())

    def test_fixed_grid_workers_require_problem_builder(self):
        from repro.analysis import run_sscm_analysis

        with pytest.raises(StochasticError):
            run_sscm_analysis(_builder(), energy=1.0,
                              max_variables_by_group={"doping": 2},
                              workers=2)

    def test_fixed_grid_workers_validated(self):
        from repro.analysis import run_sscm_analysis

        for bad in (0, -1, True, 1.5):
            with pytest.raises(StochasticError):
                run_sscm_analysis(_builder(), workers=bad,
                                  problem_builder=_builder)

    @pytest.mark.parametrize("start_method",
                             ["fork", "spawn", "forkserver"])
    def test_parallel_fixed_grid_bitwise_equals_serial(
            self, start_method):
        """ROADMAP item: the level-2 grid is one big wave for the
        existing evaluator — identical bits, just more processes.
        Spawn and forkserver (Python 3.14's Linux default) pickle the
        initializer, its arguments and every mapped callable, so a
        closure anywhere on the pool path fails those cases.  A
        forkserver worker is the server's child, not the build's, so
        a worker that ties its life to the build fails that case."""
        from repro.analysis import run_sscm_analysis

        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(start_method, force=True)
        try:
            serial = run_sscm_analysis(
                _builder(), energy=1.0,
                max_variables_by_group={"doping": 3})
            parallel = run_sscm_analysis(
                _builder(), energy=1.0,
                max_variables_by_group={"doping": 3},
                workers=2, problem_builder=_builder)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert parallel.num_runs == serial.num_runs
        assert np.array_equal(parallel.sscm.pce.coefficients,
                              serial.sscm.pce.coefficients)
        assert np.array_equal(parallel.mean, serial.mean)
        assert np.array_equal(parallel.std, serial.std)
        assert parallel.refinement_metadata() is None
        assert parallel.basis_metadata() == serial.basis_metadata()

    def test_parallel_build_bitwise_equals_serial(self):
        from repro.analysis import run_sscm_analysis

        serial = run_sscm_analysis(
            _builder(), energy=1.0,
            max_variables_by_group={"doping": 3},
            refinement=AdaptiveConfig(tol=1e-3, max_level=2))
        parallel = run_sscm_analysis(
            _builder(), energy=1.0,
            max_variables_by_group={"doping": 3},
            refinement=AdaptiveConfig(tol=1e-3, max_level=2),
            workers=2, problem_builder=_builder)
        assert parallel.num_runs == serial.num_runs
        assert np.array_equal(parallel.sscm.pce.coefficients,
                              serial.sscm.pce.coefficients)
        assert np.array_equal(parallel.mean, serial.mean)
        assert np.array_equal(parallel.std, serial.std)
        serial_meta = serial.refinement_metadata()
        parallel_meta = parallel.refinement_metadata()
        assert parallel_meta["indices"] == serial_meta["indices"]
        # Same sidecar too: the worker count is pure execution policy.
        assert parallel_meta["config"] == serial_meta["config"]

    def test_pool_build_stores_the_serial_bytes(self, tmp_path):
        """ensure_surrogate(workers=2) lands under the serial build's
        cache key with the serial build's payload bytes."""
        from repro.experiments import table1_spec
        from repro.serving import SurrogateStore, ensure_surrogate

        spec = table1_spec("doping",
                           reduction={"caps": {"doping": 2},
                                      "energy": 1.0},
                           max_step_um=2.0, rdf_nodes=8)
        digests = []
        for name, workers in (("serial", 1), ("pool", 2)):
            store = SurrogateStore(tmp_path / name)
            report = ensure_surrogate(spec, store, workers=workers)
            assert report.built
            assert report.cache_key == spec.cache_key()
            assert store.keys() == [spec.cache_key()]
            digests.append(store.sidecar(spec.cache_key())["npz_sha256"])
        assert digests[0] == digests[1]


#: The test process; a forked pool worker inherits this value.
_TEST_PID = os.getpid()


class _RowSums:
    """A stand-in problem: a sample's row is the sum of its point."""

    def evaluate_samples(self, xis):
        return np.array([[float(np.sum(xi))] for xi in xis])


class _DiesInWorker(_RowSums):
    """A stand-in problem whose pool workers die on their first chunk."""

    def evaluate_samples(self, xis):
        if os.getpid() != _TEST_PID:
            os._exit(1)
        return super().evaluate_samples(xis)


class _PlainSpace:
    """A stand-in reduced space: points are their own samples."""

    dim = 2

    def split(self, zeta):
        return zeta


def _traced_grid_build(**kwargs):
    """The d=2 level-2 grid (one 17-point wave) under a tracer:
    ``(result, parallel_wave spans)``."""
    from repro.analysis import run_sscm_analysis
    from repro.obs import Tracer, activate

    tracer = Tracer()
    with activate(tracer):
        result = run_sscm_analysis(_builder(), energy=1.0,
                                   max_variables_by_group={"doping": 2},
                                   **kwargs)
    return result, [node for node in tracer.spans
                    if node.name == "parallel_wave"]


@pytest.fixture()
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host (the conftest pins BLAS to one
    thread): every other condition of the default pool holds."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestDefaultWorkers:
    """``workers=None`` pools only where a fork is safe and fast; each
    test below flips exactly one condition of that rule."""

    def test_default_build_pools_and_keeps_the_serial_bits(self,
                                                           two_cpus):
        serial, serial_waves = _traced_grid_build(
            problem_builder=_builder, workers=1)
        pooled, waves = _traced_grid_build(problem_builder=_builder)
        assert not serial_waves
        assert [node.attrs["chunks"] for node in waves] == [2]
        assert np.array_equal(pooled.sscm.pce.coefficients,
                              serial.sscm.pce.coefficients)

    def test_explicit_count_is_kept(self):
        from repro.analysis.parallel import resolve_workers

        assert resolve_workers(3, None) == 3
        assert resolve_workers(1, _builder) == 1

    def test_one_cpu_stays_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, waves = _traced_grid_build(problem_builder=_builder)
        assert waves == []

    def test_a_live_thread_stays_serial(self, two_cpus):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            _, waves = _traced_grid_build(problem_builder=_builder)
        finally:
            release.set()
            thread.join()
        assert waves == []

    @pytest.mark.parametrize("threads", [2, None])
    def test_threaded_or_unknown_blas_stays_serial(self, two_cpus,
                                                   monkeypatch, threads):
        monkeypatch.setattr("repro.analysis.parallel._blas_threads",
                            lambda path: threads)
        _, waves = _traced_grid_build(problem_builder=_builder)
        assert waves == []

    def test_no_openblas_mapped_stays_serial(self, two_cpus, monkeypatch,
                                             tmp_path):
        """An MKL or BLIS numpy maps no OpenBLAS, so there is no getter
        to ask: its thread count is unknown, which counts as threaded."""
        maps = tmp_path / "maps"
        maps.write_text(
            "55d0c1a00000-55d0c1a2c000 r--p 00000000 08:01 1311 "
            "/usr/bin/python3.11\n"
            "7f1c2e000000-7f1c2e3c1000 r-xp 00000000 08:01 2622 "
            "/opt/conda/lib/libmkl_rt.so.2\n")
        monkeypatch.setattr("repro.analysis.parallel._MAPS", str(maps))
        _, waves = _traced_grid_build(problem_builder=_builder)
        assert waves == []

    def test_spawn_start_method_stays_serial(self, two_cpus, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_start_method",
                            lambda allow_none=False: "spawn")
        _, waves = _traced_grid_build(problem_builder=_builder)
        assert waves == []

    def test_no_problem_builder_stays_serial(self, two_cpus):
        _, waves = _traced_grid_build()
        assert waves == []

    def test_default_build_stores_the_serial_bytes(self, tmp_path,
                                                   two_cpus):
        from repro.experiments import table1_spec
        from repro.obs import Tracer, activate
        from repro.serving import SurrogateStore, ensure_surrogate

        spec = table1_spec("doping",
                           reduction={"caps": {"doping": 2},
                                      "energy": 1.0},
                           max_step_um=2.0, rdf_nodes=8)
        key = spec.cache_key()
        payloads = {}
        for name, workers in (("serial", 1), ("default", None)):
            store = SurrogateStore(tmp_path / name)
            tracer = Tracer()
            with activate(tracer):
                assert ensure_surrogate(spec, store,
                                        workers=workers).built
            pooled = any(node.name == "parallel_wave"
                         for node in tracer.spans)
            assert pooled == (workers is None)
            payloads[name] = (store.root / f"{key}.npz").read_bytes()
        assert payloads["default"] == payloads["serial"]


class TestWaveChunking:
    def test_waves_split_by_full_ac_blocks(self, monkeypatch):
        """A wave splits into ``min(workers, points // AC_BATCH)``
        chunks; one with fewer than two full blocks stays in-process.
        One pool of every worker starts at the first wave that splits
        and serves the later ones."""
        sizes = []

        def recording(max_workers, **kwargs):
            sizes.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers, **kwargs)

        monkeypatch.setattr("repro.analysis.parallel.ProcessPoolExecutor",
                            recording)
        from repro.analysis import ParallelWaveEvaluator
        from repro.obs import Tracer, activate

        rng = np.random.default_rng(7)
        tracer = Tracer()
        with activate(tracer), ParallelWaveEvaluator(
                _RowSums, _PlainSpace(), num_workers=3,
                problem=_RowSums()) as evaluate:
            for count in (7, 8, 4, 12, 8):
                points = rng.standard_normal((count, 2))
                assert np.array_equal(
                    evaluate(points), _RowSums().evaluate_samples(points))
        assert sizes == [3]
        assert [node.attrs["chunks"] for node in tracer.spans
                if node.name == "parallel_wave"] == [2, 3, 2]

    def test_dead_worker_is_a_stochastic_error(self):
        from repro.analysis import ParallelWaveEvaluator

        with ParallelWaveEvaluator(_DiesInWorker, _PlainSpace(),
                                   num_workers=2,
                                   problem=_RowSums()) as evaluate:
            with pytest.raises(StochasticError,
                               match="8-point wave on 2 workers"):
                evaluate(np.zeros((8, 2)))


#: A pooled build whose workers stall in their first chunk, marking
#: their pids in a directory: run as ``script spec store marks``.
_STALLED_BUILD = """
import json, os, sys, time
from repro.analysis.problem import VariationalProblem
from repro.serving import ProblemSpec, SurrogateStore, ensure_surrogate

os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()
evaluate = VariationalProblem.evaluate_samples

def stalled(self, xis):
    if os.getpid() != parent:
        open(os.path.join(sys.argv[3], str(os.getpid())), "w").close()
        time.sleep(120)
    return evaluate(self, xis)

VariationalProblem.evaluate_samples = stalled
ensure_surrogate(ProblemSpec.from_dict(json.loads(sys.argv[1])),
                 SurrogateStore(sys.argv[2]))
"""


class TestPoolFailures:
    def _spec(self, **params):
        from repro.experiments import table1_spec

        return table1_spec("doping",
                           reduction={"caps": {"doping": 2},
                                      "energy": 1.0},
                           max_step_um=2.0, rdf_nodes=6, **params)

    def test_killed_build_leaves_no_worker_holding_its_lock(
            self, tmp_path):
        """Forked workers inherit the build's lock descriptor; they
        die with the build, so the next build of the key can start."""
        import repro
        from repro.daemon import release_lock, try_build_lock

        spec = self._spec()
        store, marks = tmp_path / "store", tmp_path / "marks"
        marks.mkdir()
        source = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(source))
        build = subprocess.Popen(
            [sys.executable, "-c", _STALLED_BUILD,
             json.dumps(spec.to_dict()), str(store), str(marks)],
            env=env)
        workers = []
        try:
            deadline = time.monotonic() + 120.0
            while len(os.listdir(marks)) < 2:
                assert build.poll() is None, "the build ended early"
                assert time.monotonic() < deadline, "no pool started"
                time.sleep(0.05)
            workers = [int(name) for name in os.listdir(marks)]
            build.kill()
            build.wait()
            deadline = time.monotonic() + 10.0
            while (held := try_build_lock(store, spec.cache_key())) \
                    is None:
                assert time.monotonic() < deadline, \
                    "a pool worker outlived its build and holds the lock"
                time.sleep(0.05)
            release_lock(held)
        finally:
            build.kill()
            build.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_dead_worker_fails_only_its_campaign_member(
            self, tmp_path, monkeypatch, two_cpus):
        from repro.campaign import run_campaign
        from repro.serving import ProblemSpec, SurrogateStore

        build_problem = ProblemSpec.build_problem

        def dying(spec):
            problem = build_problem(spec)
            if os.getpid() != _TEST_PID \
                    and spec.params["sigma_m"] == 0.102:
                problem.evaluate_samples = _DiesInWorker().evaluate_samples
            return problem

        monkeypatch.setattr(ProblemSpec, "build_problem", dying)
        grid = {"preset": "table1",
                "base_params": {"variant": "doping", "max_step_um": 2.0,
                                "rdf_nodes": 6},
                "axes": {"sigma_m": [0.1, 0.102, 0.104]},
                "reduction": {"caps": {"doping": 2}, "energy": 1.0},
                "name": "dying-worker"}
        catalog = run_campaign(grid, SurrogateStore(tmp_path / "store"))
        status = {row["params"]["sigma_m"]: row for row in
                  catalog["members"]}
        assert status[0.102]["status"] == "failed"
        assert "worker" in status[0.102]["error"]
        assert status[0.1]["status"] == status[0.104]["status"] \
            == "built"


class TestCliOverlay:
    def _args(self, **overrides):
        import argparse
        defaults = {"adaptive": False, "tol": None, "max_solves": None,
                    "max_level": None, "basis": None, "workers": None}
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_workers_flag_stays_execution_only(self):
        """--workers parallelizes whatever build the spec asks for —
        it is no spec overlay, so it neither flips a fixed-grid spec
        into an adaptive build nor lands in the spec at all."""
        from repro.__main__ import _overlay_adaptive
        from repro.experiments import table2_spec

        spec = table2_spec(rdf_nodes=8)
        overlaid = _overlay_adaptive(spec, self._args(workers=4))
        assert overlaid is spec
        assert "adaptive" not in overlaid.reduction
        kwargs = overlaid.analysis_kwargs()
        assert kwargs["refinement"] is None
        assert "workers" not in kwargs

    def test_workers_flag_keeps_cache_key(self):
        from repro.__main__ import _overlay_adaptive
        from repro.experiments import table2_spec

        spec = table2_spec(rdf_nodes=8, adaptive={"tol": 1e-3})
        overlaid = _overlay_adaptive(spec, self._args(workers=4))
        assert overlaid.cache_key() == spec.cache_key()

    def test_workers_flag_reaches_adaptive_builds(self, tmp_path,
                                                  monkeypatch):
        """An adaptive spec + --workers: the count reaches the build
        call, next to the request's own spec."""
        import repro.serving
        from repro.__main__ import main
        from repro.experiments import table2_spec
        from repro.serving.pipeline import BuildReport

        spec = table2_spec(rdf_nodes=8, adaptive={"tol": 1e-3})
        request = tmp_path / "request.json"
        request.write_text(json.dumps(spec.to_dict()))
        seen = {}

        def fake_ensure(spec, store, workers=None, **kwargs):
            seen.update(key=spec.cache_key(), workers=workers)
            return BuildReport(record=_tiny_record(spec), built=False,
                               num_solves=0, wall_time=0.0)

        monkeypatch.setattr(repro.serving, "ensure_surrogate",
                            fake_ensure)
        assert main(["build", str(request), "--workers", "4",
                     "--store", str(tmp_path / "store")]) == 0
        assert seen == {"key": spec.cache_key(), "workers": 4}

    def test_basis_flag_implies_adaptive(self):
        from repro.__main__ import _overlay_adaptive
        from repro.experiments import table2_spec

        spec = table2_spec(rdf_nodes=8)
        overlaid = _overlay_adaptive(spec,
                                     self._args(basis="adaptive"))
        assert overlaid.reduction["adaptive"]["basis"] == "adaptive"
        refinement = overlaid.analysis_kwargs()["refinement"]
        assert refinement.basis == "adaptive"
        assert overlaid.cache_key() != spec.cache_key()

    def test_no_flags_pass_spec_through(self):
        from repro.__main__ import _overlay_adaptive
        from repro.experiments import table2_spec

        spec = table2_spec(rdf_nodes=8)
        assert _overlay_adaptive(spec, self._args()) is spec


def _tiny_record(spec, refinement=None):
    """A store record with a minimal (1-D) surrogate payload."""
    from repro.serving import SurrogateRecord
    from repro.stochastic import HermiteBasis, PolynomialChaos

    basis = HermiteBasis(1, order=2)
    pce = PolynomialChaos(basis, np.zeros((basis.size, 1)),
                          output_names=["q"])
    return SurrogateRecord(pce=pce, spec=spec, refinement=refinement)


class TestFindWarmStart:
    REFINEMENT = {
        "accepted": [[0], [1]],
        "accepted_indicators": [[[0], 1.0], [[1], 0.5]],
        "trace": [],
        "error_estimate": 1e-5,
        "termination": "tol",
    }

    def _spec(self, preset="table2", adaptive=None, **params):
        from repro.serving import ProblemSpec
        reduction = {}
        if adaptive is not None:
            reduction["adaptive"] = adaptive
        return ProblemSpec(preset=preset, params=params,
                           reduction=reduction)

    def test_nearest_sibling_wins(self, tmp_path):
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        near = self._spec(adaptive={"tol": 1e-3}, rdf_nodes=8,
                          margin_um=2.5)
        far = self._spec(adaptive={"tol": 1e-3}, rdf_nodes=8,
                         margin_um=1.0)
        store.save(_tiny_record(near, refinement=self.REFINEMENT))
        store.save(_tiny_record(far, refinement=self.REFINEMENT))

        target = self._spec(adaptive={"tol": 1e-3}, rdf_nodes=8,
                            margin_um=2.4)
        key, sidecar = store.find_warm_start(target)
        assert key == near.cache_key()
        assert sidecar["refinement"]["accepted"] == [[0], [1]]

    def test_basis_variant_does_not_block_matching(self, tmp_path):
        # The accepted index set is basis-independent, so a surrogate
        # fitted under the paper's quadratic truncation may seed an
        # order-adaptive build of a sibling spec (and vice versa).
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        stored = self._spec(adaptive={"tol": 1e-3, "basis": "order2"},
                            margin_um=2.5)
        store.save(_tiny_record(stored, refinement=self.REFINEMENT))
        target = self._spec(
            adaptive={"tol": 1e-3, "basis": "adaptive"}, margin_um=2.6)
        found = store.find_warm_start(target)
        assert found is not None and found[0] == stored.cache_key()

    def test_basis_relaxed_seed_is_recorded_as_such(self, tmp_path):
        from repro.serving import SurrogateStore
        from repro.serving.pipeline import _warm_start_for

        store = SurrogateStore(tmp_path)
        stored = self._spec(adaptive={"tol": 1e-3, "basis": "order2"},
                            margin_um=2.5)
        key = store.save(_tiny_record(stored,
                                      refinement=self.REFINEMENT))

        relaxed = _warm_start_for(
            self._spec(adaptive={"tol": 1e-3, "basis": "adaptive"},
                       margin_um=2.6), store)
        assert relaxed.source == f"{key}:basis-relaxed"
        exact = _warm_start_for(
            self._spec(adaptive={"tol": 1e-3, "basis": "order2"},
                       margin_um=2.6), store)
        assert exact.source == key

    def test_tol_variant_does_not_block_matching(self, tmp_path):
        # The accepted index set transfers across stopping tolerances
        # (only the certification does not), so a looser-tol sibling
        # may seed a tighter build — and vice versa.
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        stored = self._spec(adaptive={"tol": 1e-2}, margin_um=2.5)
        store.save(_tiny_record(stored, refinement=self.REFINEMENT))
        for tol in (1e-4, 1e-1):
            found = store.find_warm_start(
                self._spec(adaptive={"tol": tol}, margin_um=2.6))
            assert found is not None \
                and found[0] == stored.cache_key(), tol

    def test_exact_tol_sibling_outranks_relaxed(self, tmp_path):
        # Equidistant siblings: the one whose tol matches the target
        # wins, regardless of key order.
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        exact = self._spec(adaptive={"tol": 1e-3}, margin_um=2.5)
        looser = self._spec(adaptive={"tol": 1e-2}, margin_um=2.5)
        store.save(_tiny_record(exact, refinement=self.REFINEMENT))
        store.save(_tiny_record(looser, refinement=self.REFINEMENT))

        target = self._spec(adaptive={"tol": 1e-3}, margin_um=2.6)
        key, _ = store.find_warm_start(target)
        assert key == exact.cache_key()

    def test_tol_relaxed_seed_is_recorded_and_uncertifiable(
            self, tmp_path):
        # Mirrors the basis-relaxed provenance test: a cross-tol seed
        # carries the :tol-relaxed suffix and an infinite frontier
        # error, so the driver can never certify from it.
        from repro.serving import SurrogateStore
        from repro.serving.pipeline import _warm_start_for

        store = SurrogateStore(tmp_path)
        stored = self._spec(adaptive={"tol": 1e-2}, margin_um=2.5)
        key = store.save(_tiny_record(stored,
                                      refinement=self.REFINEMENT))

        relaxed = _warm_start_for(
            self._spec(adaptive={"tol": 1e-3}, margin_um=2.6), store)
        assert relaxed.source == f"{key}:tol-relaxed"
        assert relaxed.frontier_error == float("inf")
        exact = _warm_start_for(
            self._spec(adaptive={"tol": 1e-2}, margin_um=2.6), store)
        assert exact.source == key
        assert np.isfinite(exact.frontier_error)

    def test_basis_and_tol_relaxations_compose(self, tmp_path):
        from repro.serving import SurrogateStore
        from repro.serving.pipeline import _warm_start_for

        store = SurrogateStore(tmp_path)
        stored = self._spec(adaptive={"tol": 1e-2, "basis": "order2"},
                            margin_um=2.5)
        key = store.save(_tiny_record(stored,
                                      refinement=self.REFINEMENT))
        seed = _warm_start_for(
            self._spec(adaptive={"tol": 1e-3, "basis": "adaptive"},
                       margin_um=2.6), store)
        assert seed.source == f"{key}:basis-relaxed:tol-relaxed"
        assert seed.frontier_error == float("inf")

    def test_uncertified_seed_reopens_frontier(self):
        # Driver-level contract behind the tol relaxation: an
        # uncertified() copy still seeds the interior but must never
        # terminate "warm".
        from repro.adaptive.driver import WarmStart

        warm = WarmStart(indices=((0,), (1,)), frontier_error=1e-5,
                         indicators={(0,): 1.0, (1,): 0.5},
                         source="abc")
        uncertified = warm.uncertified()
        assert uncertified.frontier_error == float("inf")
        assert uncertified.indices == warm.indices
        assert uncertified.source == warm.source

    def test_no_match_cases(self, tmp_path):
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        stored = self._spec(adaptive={"tol": 1e-3}, margin_um=2.5)
        store.save(_tiny_record(stored, refinement=self.REFINEMENT))

        # Fixed-grid target: nothing to warm-start.
        assert store.find_warm_start(self._spec(margin_um=2.6)) is None
        # Different budget caps: a differently-capped source explored
        # a different region, so its interior doesn't transfer.
        assert store.find_warm_start(
            self._spec(adaptive={"tol": 1e-3, "max_level": 3},
                       margin_um=2.6)) is None
        # Different preset.
        assert store.find_warm_start(
            self._spec(preset="table1", adaptive={"tol": 1e-3})) is None
        # Non-numeric param difference changes the problem family.
        assert store.find_warm_start(
            self._spec(adaptive={"tol": 1e-3}, margin_um=2.6,
                       surface_model="naive")) is None
        # The identical spec is a cache hit, not a warm start.
        assert store.find_warm_start(
            self._spec(adaptive={"tol": 1e-3}, margin_um=2.5)) is None

    def test_entries_without_refinement_are_skipped(self, tmp_path):
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        store.save(_tiny_record(
            self._spec(adaptive={"tol": 1e-3}, margin_um=2.5)))
        assert store.find_warm_start(
            self._spec(adaptive={"tol": 1e-3}, margin_um=2.6)) is None

    def test_damaged_sidecar_is_skipped(self, tmp_path):
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        stored = self._spec(adaptive={"tol": 1e-3}, margin_um=2.5)
        key = store.save(_tiny_record(stored,
                                      refinement=self.REFINEMENT))
        sidecar_path = store.root / f"{key}.json"
        sidecar_path.write_text(sidecar_path.read_text()
                                .replace('"tol":0.001', '"tol":0.002'))
        assert store.find_warm_start(
            self._spec(adaptive={"tol": 1e-3}, margin_um=2.6)) is None

    def test_malformed_refinement_means_cold_build(self, tmp_path):
        """An edited refinement block (which the store's spec-rehash
        gate cannot catch) must degrade to a cold build, not crash."""
        from repro.serving import SurrogateStore
        from repro.serving.pipeline import _warm_start_for

        for refinement in ({"accepted": [3]},                # not nested
                           {"trace": [{"indicator": 1.0}]},  # no index
                           {"accepted": [[0]],
                            "accepted_indicators": [["x"]]}):
            store = SurrogateStore(tmp_path / str(id(refinement)))
            store.save(_tiny_record(
                self._spec(adaptive={"tol": 1e-3}, margin_um=2.5),
                refinement=refinement))
            target = self._spec(adaptive={"tol": 1e-3}, margin_um=2.6)
            assert _warm_start_for(target, store) is None

    def test_rebuild_implies_cold_build(self, tmp_path, monkeypatch):
        from repro.serving import SurrogateStore, ensure_surrogate
        import repro.serving.pipeline as pipeline

        store = SurrogateStore(tmp_path)
        sibling = self._spec(adaptive={"tol": 1e-3}, margin_um=2.5)
        store.save(_tiny_record(sibling, refinement=self.REFINEMENT))
        target = self._spec(adaptive={"tol": 1e-3}, margin_um=2.6)
        seen = {}

        def fake_build(spec, store=None,
                       warm_start=True, warm_source=None, workers=None):
            seen["warm_start"] = warm_start
            return _tiny_record(spec)

        monkeypatch.setattr(pipeline, "build_surrogate", fake_build)
        ensure_surrogate(target, store, rebuild=True)
        assert seen["warm_start"] is False
        ensure_surrogate(target, store, rebuild=True, warm_start=True)
        assert seen["warm_start"] is False

    def test_sidecar_reader_misses_cleanly(self, tmp_path):
        from repro.serving import SurrogateStore

        store = SurrogateStore(tmp_path)
        assert store.sidecar("0" * 64) is None
        with pytest.raises(ServingError):
            store.sidecar("not-a-key")


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store holding one adaptive table1 build, plus its spec."""
    from repro.serving import SurrogateStore, ensure_surrogate

    spec = _doping_adaptive_spec(rdf_nodes=6)
    store = SurrogateStore(tmp_path_factory.mktemp("store"))
    report = ensure_surrogate(spec, store)
    assert report.built and report.warm_start_source is None
    return store, spec, report


def _doping_adaptive_spec(**overrides):
    from repro.experiments import table1_spec

    params = {"max_step_um": 2.0, "rdf_nodes": 6}
    params.update(overrides)
    # The smallest problem that shows a warm start: two reduced doping
    # variables (18 solves cold), and a tol tight enough that
    # refinement accepts a real interior for a warm start to seed.
    return table1_spec("doping", reduction={"caps": {"doping": 2}},
                       adaptive={"tol": 1e-5, "max_level": 2},
                       **params)


class TestServingWarmStart:
    def test_stray_upper_cased_copy_does_not_block_warm_starts(
            self, warm_store, tmp_path):
        from repro.serving import SurrogateStore, ensure_surrogate

        store, base_spec, _ = warm_store
        key = base_spec.cache_key()
        copy = SurrogateStore(tmp_path / "copy")
        for suffix in (".json", ".npz"):
            data = (store.root / f"{key}{suffix}").read_bytes()
            (copy.root / f"{key}{suffix}").write_bytes(data)
            (copy.root / f"{key.upper()}{suffix}").write_bytes(data)
        warm = ensure_surrogate(_doping_adaptive_spec(rdf_nodes=7), copy)
        assert warm.built and warm.warm_start_source == key

    def test_perturbed_spec_builds_warm_with_fewer_solves(
            self, warm_store, tmp_path):
        from repro.serving import SurrogateStore, ensure_surrogate

        store, base_spec, base_report = warm_store
        perturbed = _doping_adaptive_spec(rdf_nodes=7)
        assert perturbed.cache_key() != base_spec.cache_key()

        cold_store = SurrogateStore(tmp_path / "cold")
        cold = ensure_surrogate(perturbed, cold_store,
                                warm_start=False)
        assert cold.built and cold.warm_start_source is None

        warm = ensure_surrogate(perturbed, store)
        assert warm.built
        assert warm.warm_start_source == base_spec.cache_key()
        refinement = warm.record.refinement
        assert refinement["warm_start_source"] == base_spec.cache_key()
        assert refinement["termination"] == "warm"
        # The whole point: strictly fewer solves than the cold build.
        assert warm.num_solves < cold.num_solves
        # Matched accuracy in the engine's own scale-normalized
        # metric: warm and cold statistics agree relative to the
        # dominant QoI magnitude (the certificate bounds exactly that;
        # see docs/ADAPTIVE.md for why sub-dominant outputs are not
        # individually bounded).
        scale = np.max(np.abs(cold.record.pce.mean))
        assert np.max(np.abs(warm.record.pce.mean
                             - cold.record.pce.mean)) <= 1e-4 * scale
        assert np.max(np.abs(warm.record.pce.std
                             - cold.record.pce.std)) <= 1e-3 * scale

    def test_warm_record_replays_from_store(self, warm_store):
        from repro.serving import ensure_surrogate

        store, base_spec, _ = warm_store
        again = ensure_surrogate(base_spec, store)
        assert not again.built and again.num_solves == 0
