"""Tests for PCE, PFA/wPFA reduction, SSCM and Monte Carlo drivers."""

import numpy as np
import pytest

from repro.errors import StochasticError
from repro.stochastic import (
    HermiteBasis,
    PolynomialChaos,
    pfa_reduce,
    reduce_groups,
    run_monte_carlo,
    run_sscm,
    smolyak_sparse_grid,
    tensor_grid,
    wpfa_reduce,
)
from repro.variation.covariance import covariance_matrix
from repro.variation.groups import PerturbationGroup


def _quadratic_problem(d, seed=0):
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


class TestQuadraticPCE:
    def test_exact_quadratic_recovery_quadrature(self):
        d = 5
        f, mean, var = _quadratic_problem(d)
        res = run_sscm(f, d)
        assert res.mean[0] == pytest.approx(mean, rel=1e-10)
        assert res.std[0] == pytest.approx(np.sqrt(var), rel=1e-10)

    def test_exact_quadratic_recovery_regression(self):
        d = 4
        f, mean, var = _quadratic_problem(d, seed=3)
        res = run_sscm(f, d, fit="regression")
        assert res.mean[0] == pytest.approx(mean, rel=1e-8)
        assert res.std[0] == pytest.approx(np.sqrt(var), rel=1e-8)

    def test_tensor_grid_agrees_with_sparse(self):
        d = 3
        f, mean, var = _quadratic_problem(d, seed=7)
        sparse = run_sscm(f, d)
        tensor = run_sscm(f, d, grid=tensor_grid(d, 3))
        assert tensor.mean[0] == pytest.approx(sparse.mean[0], rel=1e-9)
        assert tensor.std[0] == pytest.approx(sparse.std[0], rel=1e-9)

    def test_surrogate_evaluation(self):
        d = 3
        f, _, _ = _quadratic_problem(d, seed=1)
        res = run_sscm(f, d)
        z = np.array([0.3, -1.2, 0.8])
        assert res.pce.evaluate(z)[0] == pytest.approx(f(z)[0], rel=1e-9)

    def test_surrogate_sampling_statistics(self, rng):
        d = 3
        f, mean, var = _quadratic_problem(d, seed=2)
        res = run_sscm(f, d)
        s_mean, s_std = res.pce.sample_statistics(rng, num_samples=200000)
        assert s_mean[0] == pytest.approx(mean, rel=0.05)
        assert s_std[0] == pytest.approx(np.sqrt(var), rel=0.05)

    def test_vector_output(self):
        d = 2
        f = lambda z: np.array([z[0], z[0] + z[1] ** 2])
        res = run_sscm(f, d, output_names=["a", "b"])
        np.testing.assert_allclose(res.mean, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(res.std, [1.0, np.sqrt(1 + 2)],
                                   rtol=1e-10)
        assert res.output_names == ["a", "b"]

    def test_coefficient_shape_checked(self):
        basis = HermiteBasis(2)
        with pytest.raises(StochasticError):
            PolynomialChaos(basis, np.zeros((3, 1)))

    def test_regression_underdetermined_rejected(self):
        basis = HermiteBasis(4)
        pts = np.zeros((3, 4))
        with pytest.raises(StochasticError):
            PolynomialChaos.fit_regression(basis, pts, np.zeros(3))


class TestPFA:
    def _cov(self, n=20, eta=3.0):
        coords = np.arange(n, dtype=float)[:, None] * np.ones((1, 3))
        return covariance_matrix(coords, sigma=1.0, eta=eta)

    def test_full_rank_reconstructs_covariance(self):
        cov = self._cov(10)
        red = pfa_reduce(cov, energy=1.0)
        np.testing.assert_allclose(red.reduced_covariance(), cov,
                                   atol=1e-10)

    def test_truncation_monotone_energy(self):
        cov = self._cov(20)
        r3 = pfa_reduce(cov, energy=1.0, max_variables=3)
        r6 = pfa_reduce(cov, energy=1.0, max_variables=6)
        assert r3.reduced_size == 3
        assert r6.reduced_size == 6
        assert r6.energy_captured > r3.energy_captured

    def test_long_correlation_reduces_hard(self):
        """Strong correlation => few factors carry most energy."""
        cov = self._cov(30, eta=50.0)
        red = pfa_reduce(cov, energy=0.95)
        assert red.reduced_size <= 5

    def test_truncated_variance_below_original(self):
        cov = self._cov(15)
        red = pfa_reduce(cov, energy=1.0, max_variables=4)
        recon = red.reduced_covariance()
        assert np.all(np.diag(recon) <= np.diag(cov) + 1e-12)

    def test_reconstruct_shapes(self, rng):
        cov = self._cov(8)
        red = pfa_reduce(cov, max_variables=3)
        xi = red.reconstruct(rng.standard_normal(3))
        assert xi.shape == (8,)
        batch = red.reconstruct(rng.standard_normal((5, 3)))
        assert batch.shape == (5, 8)
        with pytest.raises(StochasticError):
            red.reconstruct(np.zeros(4))

    def test_validation(self):
        with pytest.raises(StochasticError):
            pfa_reduce(np.zeros((2, 3)))
        with pytest.raises(StochasticError):
            pfa_reduce(np.eye(3), energy=0.0)


class TestWPFA:
    def _cov(self, n=20):
        coords = np.arange(n, dtype=float)[:, None] * np.ones((1, 3))
        return covariance_matrix(coords, sigma=1.0, eta=3.0)

    def test_full_rank_reconstructs_covariance(self, rng):
        cov = self._cov(8)
        weights = rng.uniform(0.5, 2.0, 8)
        red = wpfa_reduce(cov, weights, energy=1.0)
        np.testing.assert_allclose(red.reduced_covariance(), cov,
                                   atol=1e-8)

    def test_uniform_weights_match_pfa(self):
        cov = self._cov(12)
        w = np.ones(12)
        red_w = wpfa_reduce(cov, w, max_variables=4)
        red_p = pfa_reduce(cov, max_variables=4)
        np.testing.assert_allclose(red_w.reduced_covariance(),
                                   red_p.reduced_covariance(), atol=1e-10)

    def test_weighting_prioritizes_influential_nodes(self):
        """A heavily weighted node keeps its variance under truncation
        where plain PFA distributes the budget uniformly."""
        n = 20
        cov = np.eye(n)  # independent nodes: PFA has no structure
        weights = np.ones(n)
        weights[7] = 100.0
        red = wpfa_reduce(cov, weights, max_variables=1)
        recon = np.diag(red.reduced_covariance())
        assert recon[7] == pytest.approx(1.0, rel=1e-6)
        assert recon.sum() == pytest.approx(recon[7], rel=1e-3)

    def test_zero_weights_floored(self):
        cov = self._cov(6)
        weights = np.zeros(6)
        weights[0] = 1.0
        red = wpfa_reduce(cov, weights, max_variables=2)
        assert np.all(np.isfinite(red.matrix))

    def test_validation(self):
        cov = self._cov(4)
        with pytest.raises(StochasticError):
            wpfa_reduce(cov, np.ones(3))
        with pytest.raises(StochasticError):
            wpfa_reduce(cov, -np.ones(4))
        with pytest.raises(StochasticError):
            wpfa_reduce(cov, np.zeros(4))


class TestReducedSpace:
    def _groups(self):
        coords = np.arange(6, dtype=float)[:, None] * np.ones((1, 3))
        cov = covariance_matrix(coords, 1.0, 3.0)
        g1 = PerturbationGroup(name="a", kind="geometry",
                               node_ids=np.arange(6), coords=coords,
                               covariance=cov, axis=0)
        g2 = PerturbationGroup(name="doping", kind="doping",
                               node_ids=np.arange(6), coords=coords,
                               covariance=cov)
        return [g1, g2]

    def test_split_concatenation(self):
        groups = self._groups()
        rs = reduce_groups(groups, method="pfa", energy=1.0,
                           max_variables_by_group={"a": 2, "doping": 3})
        assert rs.dim == 5
        zeta = np.arange(5, dtype=float)
        xi = rs.split(zeta)
        assert set(xi) == {"a", "doping"}
        assert xi["a"].shape == (6,)
        # Group slices act on disjoint parts of zeta.
        zeta2 = zeta.copy()
        zeta2[:2] = 0.0
        xi2 = rs.split(zeta2)
        np.testing.assert_allclose(xi2["doping"], xi["doping"])
        assert not np.allclose(xi2["a"], xi["a"])

    def test_wpfa_needs_weights_falls_back(self):
        groups = self._groups()
        rs = reduce_groups(groups, method="wpfa", weights_by_group=None,
                           energy=0.9)
        assert rs.dim >= 2  # silently fell back to PFA per group

    def test_summary_mentions_groups(self):
        groups = self._groups()
        rs = reduce_groups(groups, method="pfa", energy=0.9)
        text = rs.summary()
        assert "a:" in text and "doping:" in text and "total d" in text

    def test_bad_method(self):
        with pytest.raises(StochasticError):
            reduce_groups(self._groups(), method="magic")

    def test_zeta_shape_checked(self):
        rs = reduce_groups(self._groups(), method="pfa", energy=0.9)
        with pytest.raises(StochasticError):
            rs.split(np.zeros(rs.dim + 1))


class TestMonteCarlo:
    def test_gaussian_statistics(self):
        def sample(rng):
            return np.array([3.0 + 2.0 * rng.standard_normal()])

        res = run_monte_carlo(sample, num_runs=4000, seed=1)
        assert res.mean[0] == pytest.approx(3.0, abs=0.15)
        assert res.std[0] == pytest.approx(2.0, rel=0.08)
        assert res.standard_error()[0] == pytest.approx(
            2.0 / np.sqrt(4000), rel=0.1)

    def test_seed_reproducibility(self):
        def sample(rng):
            return np.array([rng.standard_normal()])

        a = run_monte_carlo(sample, 50, seed=9)
        b = run_monte_carlo(sample, 50, seed=9)
        assert a.mean[0] == b.mean[0]

    def test_keep_samples(self):
        def sample(rng):
            return np.array([rng.standard_normal(), 1.0])

        res = run_monte_carlo(sample, 25, seed=0, keep_samples=True)
        assert res.samples.shape == (25, 2)

    def test_validation(self):
        with pytest.raises(StochasticError):
            run_monte_carlo(lambda rng: np.zeros(1), num_runs=1)


class TestSSCMDriver:
    def test_grid_dim_mismatch(self):
        with pytest.raises(StochasticError):
            run_sscm(lambda z: np.zeros(1), 3,
                     grid=smolyak_sparse_grid(2))

    def test_unknown_fit(self):
        with pytest.raises(StochasticError):
            run_sscm(lambda z: np.zeros(1), 2, fit="spline")
