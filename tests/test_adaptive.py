"""Tests of the dimension-adaptive collocation engine.

The engine must (a) reproduce the fixed level-2 Smolyak answer exactly
when allowed to exhaust the level-2 simplex, (b) beat it decisively on
anisotropic problems, (c) respect its budget controls, and (d) flow
through the serving layer: adaptive specs get distinct cache keys and
replay from the store with zero solves, refinement provenance intact.
"""

from itertools import product

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveConfig,
    IncrementalGrid,
    MultiIndexSet,
    combination_coefficients,
    difference_quadrature,
    is_downward_closed,
    run_adaptive_sscm,
    surplus_indicator,
    tensor_quadrature,
)
from repro.adaptive.driver import combination_projection
from repro.analysis.runner import run_problem, run_sscm_analysis
from repro.errors import ServingError, StochasticError
from repro.experiments import table1_spec
from repro.serving import SurrogateStore, ensure_surrogate
from repro.stochastic import run_sscm, smolyak_sparse_grid
from repro.stochastic.gauss_hermite import NodeTable, rule_size_for_level
from repro.stochastic.hermite import HermiteBasis


def quadratic_problem(d, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    A = 0.25 * (A + A.T)
    b = rng.normal(size=d)
    c = float(rng.normal())

    def f(z):
        return np.array([c + b @ z + z @ A @ z])

    mean = c + np.trace(A)
    var = b @ b + 2.0 * np.sum(A * A)
    return f, mean, var


def anisotropic_problem(d=8, eps=1e-6):
    """Quadratic in d dims where only the first two directions matter."""
    A = np.zeros((d, d))
    A[0, 0], A[1, 1] = 1.5, 0.8
    A[0, 1] = A[1, 0] = 0.4
    b = np.zeros(d)
    b[0], b[1] = 1.0, 0.5
    for i in range(2, d):
        A[i, i] = eps
        b[i] = eps

    def f(z):
        return np.array([3.0 + b @ z + z @ A @ z])

    mean = 3.0 + np.trace(A)
    var = b @ b + 2.0 * np.sum(A * A)
    return f, mean, var


def simplex(dim, level):
    return [ix for ix in product(range(level + 1), repeat=dim)
            if sum(ix) <= level]


class TestNodeTable:
    def test_shared_centre_across_levels(self):
        table = NodeTable()
        ids = [table.rule(level)[2] for level in range(4)]
        centre = ids[0][0]
        for level in (1, 2, 3):
            size = rule_size_for_level(level)
            assert ids[level][size // 2] == centre

    def test_distinct_values_get_distinct_ids(self):
        table = NodeTable()
        all_ids = set()
        total = 0
        for level in range(4):
            nodes, _, ids = table.rule(level)
            assert len(set(ids)) == len(nodes)
            all_ids.update(ids)
            total += len(nodes)
        # Across levels only the centre coincides (rules are not
        # nested): 1 + 3 + 5 + 9 nodes share exactly one value.
        assert len(all_ids) == total - 3

    def test_rule_sizes(self):
        assert [rule_size_for_level(lv) for lv in range(5)] \
            == [1, 3, 5, 9, 17]
        with pytest.raises(StochasticError):
            rule_size_for_level(-1)


class TestMultiIndexSet:
    def test_root_is_admissible(self):
        ixs = MultiIndexSet(3)
        assert ixs.is_admissible((0, 0, 0))
        ixs.activate((0, 0, 0), 1.0)
        assert not ixs.is_admissible((0, 0, 0))

    def test_forward_needs_accepted_backward(self):
        ixs = MultiIndexSet(2)
        ixs.activate((0, 0), 1.0)
        # (1, 0) needs (0, 0) to be *old*, not merely active.
        assert not ixs.is_admissible((1, 0))
        ixs.accept_best()
        assert ixs.is_admissible((1, 0))
        ixs.activate((1, 0), 0.5)
        ixs.activate((0, 1), 0.25)
        # (1, 1) needs both (1, 0) and (0, 1) accepted.
        assert not ixs.is_admissible((1, 1))
        ixs.accept_best()
        ixs.accept_best()
        assert ixs.is_admissible((1, 1))

    def test_accept_best_takes_largest_indicator(self):
        ixs = MultiIndexSet(2)
        ixs.activate((0, 0), 1.0)
        ixs.accept_best()
        ixs.activate((1, 0), 0.1)
        ixs.activate((0, 1), 0.7)
        index, indicator = ixs.accept_best()
        assert index == (0, 1)
        assert indicator == 0.7

    def test_error_estimate_sums_active(self):
        ixs = MultiIndexSet(2)
        ixs.activate((0, 0), 1.0)
        ixs.accept_best()
        ixs.activate((1, 0), 0.1)
        ixs.activate((0, 1), 0.2)
        assert ixs.error_estimate() == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(StochasticError):
            MultiIndexSet(0)
        ixs = MultiIndexSet(2)
        with pytest.raises(StochasticError):
            ixs.activate((1,), 0.0)
        with pytest.raises(StochasticError):
            ixs.activate((1, 0), 0.0)  # backward neighbor missing
        with pytest.raises(StochasticError):
            ixs.accept_best()

    def test_downward_closure_check(self):
        assert is_downward_closed([(0, 0), (1, 0), (0, 1)])
        assert not is_downward_closed([(0, 0), (1, 1)])


class TestCombinationCoefficients:
    def test_level2_simplex_matches_smolyak_formula(self):
        # c(l) = (-1)^(L-|l|) C(d-1, L-|l|) on the simplex boundary.
        import math
        d, L = 3, 2
        coeffs = combination_coefficients(simplex(d, L))
        for index, coeff in coeffs.items():
            total = sum(index)
            expected = (-1) ** (L - total) * math.comb(d - 1, L - total)
            assert coeff == expected

    def test_coefficients_sum_to_one(self):
        for indices in (simplex(2, 3), simplex(4, 2),
                        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]):
            assert sum(combination_coefficients(indices).values()) == 1

    def test_rejects_non_downward_closed(self):
        with pytest.raises(StochasticError):
            combination_coefficients([(0, 0), (0, 2)])
        with pytest.raises(StochasticError):
            combination_coefficients([])


class TestIncrementalGrid:
    def test_level2_simplex_reproduces_smolyak(self):
        for d in (2, 3, 5):
            grid = IncrementalGrid(d)
            indices = simplex(d, 2)
            for index in indices:
                grid.register(index)
            combined = grid.combined_quadrature(indices)
            reference = smolyak_sparse_grid(d)
            order = np.lexsort(combined.points.T[::-1])
            keep = np.abs(combined.weights[order]) > 1e-14
            np.testing.assert_array_equal(
                combined.points[order][keep], reference.points)
            np.testing.assert_allclose(
                combined.weights[order][keep], reference.weights,
                atol=1e-14)

    def test_register_emits_only_new_points(self):
        grid = IncrementalGrid(2)
        assert grid.register((0, 0)).shape == (1, 2)
        # 3-point rule on axis 0 shares the centre: 2 new points.
        assert grid.register((1, 0)).shape == (2, 2)
        assert grid.register((0, 1)).shape == (2, 2)
        # The (1,1) tensor product adds only the 4 corners.
        new = grid.register((1, 1))
        assert new.shape == (4, 2)
        assert np.all(np.abs(new) > 0)
        # Re-registering adds nothing.
        assert grid.register((1, 1)).shape == (0, 2)
        assert grid.num_points == 9

    def test_new_points_previews_without_registering(self):
        grid = IncrementalGrid(2)
        grid.register((0, 0))
        preview = grid.new_points((1, 0))
        assert preview.shape == (2, 2)
        assert grid.num_points == 1
        np.testing.assert_array_equal(preview, grid.register((1, 0)))

    def test_tensor_rows_requires_registration(self):
        grid = IncrementalGrid(2)
        with pytest.raises(StochasticError):
            grid.tensor_rows((1, 0))

    def test_quadrature_exactness_on_partial_set(self):
        # Axes-only set integrates per-direction moments exactly.
        grid = IncrementalGrid(3)
        indices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for index in indices:
            grid.register(index)
        weights = grid.combined_weights(indices)
        points = grid.points()
        assert weights.sum() == pytest.approx(1.0)
        for axis in range(3):
            assert (weights * points[:, axis] ** 2).sum() \
                == pytest.approx(1.0)
            assert (weights * points[:, axis] ** 4).sum() \
                == pytest.approx(3.0)


class TestSurplus:
    def test_difference_telescopes_to_tensor_quadratures(self):
        grid = IncrementalGrid(2)
        for index in simplex(2, 2):
            grid.register(index)
        rng = np.random.default_rng(3)
        values = rng.normal(size=(grid.num_points, 2))
        delta = difference_quadrature(grid, values, (1, 1))
        expected = (tensor_quadrature(grid, values, (1, 1))
                    - tensor_quadrature(grid, values, (1, 0))
                    - tensor_quadrature(grid, values, (0, 1))
                    + tensor_quadrature(grid, values, (0, 0)))
        np.testing.assert_allclose(delta, expected)

    def test_deltas_sum_to_combined_quadrature(self):
        grid = IncrementalGrid(2)
        indices = simplex(2, 2)
        for index in indices:
            grid.register(index)
        rng = np.random.default_rng(4)
        values = rng.normal(size=(grid.num_points, 1))
        total = sum(difference_quadrature(grid, values, index)
                    for index in indices)
        weights = grid.combined_weights(indices)
        np.testing.assert_allclose(total, weights @ values)

    def test_indicator_is_relative(self):
        assert surplus_indicator(np.array([1.0, 0.0]),
                                 np.array([10.0, 1.0])) \
            == pytest.approx(0.1)
        with pytest.raises(StochasticError):
            surplus_indicator(np.zeros(2), np.ones(3))


class TestAdaptiveConfig:
    def test_defaults_round_trip(self):
        config = AdaptiveConfig()
        assert AdaptiveConfig.from_dict(config.to_dict()) == config

    def test_partial_dict_fills_defaults(self):
        config = AdaptiveConfig.from_dict({"tol": 1e-3})
        assert config.tol == 1e-3
        assert config.max_solves is None
        assert config.max_level is None

    def test_int_valued_floats_normalized(self):
        config = AdaptiveConfig.from_dict({"max_solves": 100.0})
        assert config.max_solves == 100

    def test_validation(self):
        with pytest.raises(StochasticError):
            AdaptiveConfig(tol=-1.0)
        with pytest.raises(StochasticError):
            AdaptiveConfig(tol=float("nan"))
        with pytest.raises(StochasticError):
            AdaptiveConfig(max_solves=0)
        with pytest.raises(StochasticError):
            AdaptiveConfig(max_level=0)
        with pytest.raises(StochasticError):
            AdaptiveConfig.from_dict({"budget": 3})
        with pytest.raises(StochasticError):
            AdaptiveConfig.from_dict(7)

    def test_zero_tol_needs_a_cap(self):
        # tol=0 never certifies: without a level cap or a budget the
        # run would never stop.
        with pytest.raises(StochasticError, match="max_level"):
            AdaptiveConfig(tol=0.0)
        with pytest.raises(StochasticError, match="max_solves"):
            AdaptiveConfig.from_dict({"tol": 0})
        AdaptiveConfig(tol=0.0, max_level=2)
        AdaptiveConfig(tol=0.0, max_solves=10)


def pure_interaction(z):
    """f = z0 z1: std 1, no response along any single axis."""
    return np.array([z[0] * z[1]])


class TestAdaptiveDriver:
    def test_exhausting_level2_matches_fixed_grid_exactly(self):
        d = 4
        f, mean, var = quadratic_problem(d)
        result = run_adaptive_sscm(f, d,
                                   AdaptiveConfig(tol=0.0, max_level=2))
        reference = run_sscm(f, d)
        assert result.num_runs == reference.num_runs
        assert result.termination == "exhausted"
        assert result.converged
        np.testing.assert_allclose(result.pce.coefficients,
                                   reference.pce.coefficients,
                                   atol=1e-10)
        assert result.mean[0] == pytest.approx(mean, rel=1e-10)
        assert result.std[0] == pytest.approx(np.sqrt(var), rel=1e-10)

    def test_anisotropic_needs_far_fewer_solves(self):
        d = 8
        f, mean, var = anisotropic_problem(d)
        result = run_adaptive_sscm(f, d,
                                   AdaptiveConfig(tol=1e-4, max_level=2))
        fixed = smolyak_sparse_grid(d).num_points
        assert result.num_runs * 2 <= fixed
        assert result.mean[0] == pytest.approx(mean, rel=1e-9)
        assert result.std[0] == pytest.approx(np.sqrt(var), rel=1e-3)

    @pytest.mark.parametrize("d, solves", [(2, 17), (3, 31)])
    def test_zero_tol_exhausts_a_pure_interaction(self, d, solves):
        # Every surplus before the (1, 1, ...) pair index is exactly 0
        # here, so an error estimate of 0 must not count as "tol met"
        # at tol 0: the run exhausts the level-2 simplex.
        result = run_adaptive_sscm(pure_interaction, d,
                                   AdaptiveConfig(tol=0.0, max_level=2))
        reference = run_sscm(pure_interaction, d)
        assert result.num_runs == reference.num_runs == solves
        assert result.termination == "exhausted"
        assert abs(result.std[0] - reference.std[0]) <= 1e-12
        assert reference.std[0] == pytest.approx(1.0)

    def test_zero_tol_budget_stop_is_not_converged(self):
        result = run_adaptive_sscm(pure_interaction, 2,
                                   AdaptiveConfig(tol=0.0, max_solves=3))
        assert result.termination == "max_solves"
        assert not result.converged

    def test_max_solves_is_a_hard_cap(self):
        d = 6
        f, _, _ = quadratic_problem(d, seed=5)
        result = run_adaptive_sscm(
            f, d, AdaptiveConfig(tol=0.0, max_solves=25, max_level=2))
        assert result.num_runs <= 25
        assert result.termination == "max_solves"
        assert not result.converged

    def test_trace_records_each_acceptance(self):
        d = 3
        f, _, _ = quadratic_problem(d, seed=2)
        result = run_adaptive_sscm(f, d,
                                   AdaptiveConfig(tol=0.0, max_level=2))
        # One trace entry per accepted index; every traced index was
        # evaluated (is in the final set), and acceptances never repeat.
        traced = [tuple(step["index"]) for step in result.trace]
        assert len(set(traced)) == len(traced) >= 1
        assert set(traced) <= set(result.indices)
        solves = [step["num_solves"] for step in result.trace]
        assert solves == sorted(solves)
        for step in result.trace:
            assert set(step) == {"step", "index", "indicator",
                                 "num_solves", "active", "error"}

    def test_indices_stay_downward_closed(self):
        d = 5
        f, _, _ = anisotropic_problem(d)
        result = run_adaptive_sscm(f, d,
                                   AdaptiveConfig(tol=1e-5, max_level=3))
        assert is_downward_closed(result.indices)

    def test_solve_many_wave_batching(self):
        d = 3
        f, mean, var = quadratic_problem(d, seed=1)
        waves = []

        def solve_many(points):
            waves.append(points.shape[0])
            return np.array([f(z) for z in points])

        result = run_adaptive_sscm(
            f, d, AdaptiveConfig(tol=0.0, max_level=2),
            solve_many=solve_many)
        assert sum(waves) == result.num_runs
        # The first refinement wave batches all d direction probes.
        assert waves[1] == 2 * d
        assert result.mean[0] == pytest.approx(mean, rel=1e-10)

    def test_progress_reports_solves(self):
        calls = []
        f, _, _ = quadratic_problem(2)
        run_adaptive_sscm(f, 2, AdaptiveConfig(tol=0.0, max_level=2),
                          progress=lambda done, cap: calls.append(
                              (done, cap)))
        assert calls[-1][0] == smolyak_sparse_grid(2).num_points
        assert all(cap == -1 for _, cap in calls)

    def test_refinement_metadata_is_json_serializable(self):
        import json
        f, _, _ = quadratic_problem(2)
        result = run_adaptive_sscm(f, 2,
                                   AdaptiveConfig(tol=1e-3, max_level=2))
        metadata = result.refinement_metadata()
        assert json.loads(json.dumps(metadata)) == metadata
        assert metadata["config"]["tol"] == 1e-3
        assert metadata["num_solves"] == result.num_runs

    def test_validation(self):
        with pytest.raises(StochasticError):
            run_adaptive_sscm(lambda z: np.zeros(1), 0)


class TestCombinationProjection:
    def test_no_internal_aliasing_on_partial_grid(self):
        """Unrefined directions must not absorb refined curvature."""
        d = 4
        A = np.diag([2.0, 1.0, 1e-8, 1e-8])

        def f(z):
            return np.array([z @ A @ z])

        grid = IncrementalGrid(d)
        indices = [(0,) * d] + [tuple(1 if j == i else 0
                                      for j in range(d))
                                for i in range(d)]
        for index in indices:
            grid.register(index)
        values = np.array([f(p) for p in grid.points()])
        basis = HermiteBasis(d)
        coefficients = combination_projection(grid, values, indices,
                                              basis)
        for k, alpha in enumerate(basis.indices):
            support = [i for i, o in enumerate(alpha) if o]
            if sum(alpha) == 2 and len(support) == 1:
                assert coefficients[k, 0] == pytest.approx(
                    A[support[0], support[0]], abs=1e-12)


class TestAnalysisIntegration:
    def _problem(self):
        from repro.experiments import Table1Config, table1_problem
        from repro.geometry import MetalPlugDesign
        from repro.units import um
        config = Table1Config(design=MetalPlugDesign(max_step=um(2.0)),
                              rdf_nodes=6)
        return table1_problem("doping", config)

    def test_run_problem_alias(self):
        assert run_problem is run_sscm_analysis

    def test_refinement_config_flows_through_analysis(self):
        problem = self._problem()
        analysis = run_sscm_analysis(
            problem, max_variables_by_group={"doping": 2},
            refinement=AdaptiveConfig(tol=1e-6, max_level=2))
        fixed = run_sscm_analysis(
            problem, max_variables_by_group={"doping": 2})
        assert analysis.num_runs <= fixed.num_runs
        np.testing.assert_allclose(analysis.mean, fixed.mean, rtol=1e-3)
        np.testing.assert_allclose(analysis.std, fixed.std, rtol=1e-3)
        metadata = analysis.refinement_metadata()
        assert metadata is not None
        assert metadata["termination"] in ("tol", "exhausted")
        assert fixed.refinement_metadata() is None

    def test_refinement_accepts_plain_dict(self):
        problem = self._problem()
        analysis = run_sscm_analysis(
            problem, max_variables_by_group={"doping": 1},
            refinement={"tol": 1e-4, "max_level": 2})
        assert analysis.refinement_metadata()["config"]["max_level"] == 2

    def test_refinement_rejects_regression_fit(self):
        with pytest.raises(StochasticError, match="incompatible"):
            run_sscm_analysis(self._problem(), fit="regression",
                              refinement=AdaptiveConfig(tol=1e-4))


class TestServingIntegration:
    TINY = {"max_step_um": 2.0, "rdf_nodes": 6}
    REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}

    def _spec(self, adaptive=None):
        return table1_spec("doping", reduction=dict(self.REDUCTION),
                           adaptive=adaptive, **self.TINY)

    def test_adaptive_block_changes_cache_key(self):
        base = self._spec()
        adaptive = self._spec(adaptive={"tol": 1e-4})
        assert base.cache_key() != adaptive.cache_key()
        assert self._spec(adaptive={"tol": 1e-3}).cache_key() \
            != adaptive.cache_key()

    def test_omitted_defaults_hash_identically(self):
        sparse = self._spec(adaptive={"tol": 1e-4})
        explicit = self._spec(adaptive={"tol": 1e-4, "max_solves": None,
                                        "max_level": None})
        assert sparse.cache_key() == explicit.cache_key()

    def test_fixed_grid_canonical_form_is_unchanged(self):
        """A None adaptive block is omitted from the canonical spec,
        so fixed-grid cache keys (and every pre-adaptive store entry)
        survive the new reduction field."""
        canonical = self._spec().canonical()
        assert "adaptive" not in canonical["reduction"]
        assert "adaptive" in \
            self._spec(adaptive={"tol": 1e-4}).canonical()["reduction"]

    def test_level_and_fit_overrides_rejected_with_adaptive(self):
        with pytest.raises(ServingError, match="no effect"):
            table1_spec("doping", reduction={"level": 3},
                        adaptive={"tol": 1e-4}, **self.TINY)
        with pytest.raises(ServingError, match="no effect"):
            table1_spec("doping", reduction={"fit": "regression"},
                        adaptive={"tol": 1e-4}, **self.TINY)
        # Explicit defaults are harmless (they hash identically).
        table1_spec("doping", reduction={"level": 2,
                                         "fit": "quadrature"},
                    adaptive={"tol": 1e-4}, **self.TINY)

    def test_adaptive_config_instance_accepted(self):
        spec = self._spec(adaptive=AdaptiveConfig(tol=1e-4))
        assert spec.cache_key() \
            == self._spec(adaptive={"tol": 1e-4}).cache_key()

    def test_bad_adaptive_block_rejected(self):
        with pytest.raises(ServingError, match="adaptive"):
            self._spec(adaptive={"tol": -2.0})
        with pytest.raises(ServingError, match="adaptive"):
            self._spec(adaptive={"solves": 5})

    def test_uncapped_zero_tol_is_a_per_request_error(self, tmp_path):
        from repro.serving.service import serve_batch

        spec = self._spec().to_dict()
        spec["reduction"]["adaptive"] = {"tol": 0}
        builds = []

        def ensure(spec):  # the build-on-miss hook
            builds.append(spec)
            raise ServingError("no build expected")

        store = SurrogateStore(tmp_path / "store")
        result = serve_batch({"spec": spec,
                              "queries": [{"kind": "mean"}]},
                             store, ensure=ensure)
        (response,) = result["responses"]
        assert "tol" in response["error"]
        assert builds == []

    def test_analysis_kwargs_carry_refinement(self):
        spec = self._spec(adaptive={"tol": 1e-4, "max_level": 2})
        kwargs = spec.analysis_kwargs()
        assert kwargs["refinement"] == AdaptiveConfig(tol=1e-4,
                                                      max_level=2)
        assert self._spec().analysis_kwargs()["refinement"] is None

    def test_adaptive_surrogate_replays_with_zero_solves(self, tmp_path):
        store = SurrogateStore(tmp_path / "store")
        spec = self._spec(adaptive={"tol": 1e-5, "max_level": 2})
        first = ensure_surrogate(spec, store)
        assert first.built
        assert first.record.refinement is not None
        second = ensure_surrogate(spec, store)
        assert not second.built
        assert second.num_solves == 0
        assert second.record.refinement == first.record.refinement
        assert is_downward_closed([
            tuple(ix) for ix in second.record.refinement["indices"]])

    def test_fixed_build_has_no_refinement(self, tmp_path):
        store = SurrogateStore(tmp_path / "store")
        report = ensure_surrogate(self._spec(), store)
        assert report.record.refinement is None
