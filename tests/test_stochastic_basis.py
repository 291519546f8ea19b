"""Tests for Hermite basis, Gauss-Hermite rules and sparse grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StochasticError
from repro.stochastic import (
    HermiteBasis,
    gauss_hermite_rule,
    hermite_norm_squared,
    hermite_value,
    multi_indices_upto,
    paper_point_count,
    smolyak_sparse_grid,
    tensor_grid,
)
from repro.stochastic.hermite import EVALUATE_BLOCK, hermite_values_upto
from repro.stochastic.pce import PolynomialChaos
from repro.stochastic.sparse_grid import smolyak_point_count


class TestHermite:
    def test_first_polynomials(self):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(hermite_value(0, x), 1.0)
        np.testing.assert_allclose(hermite_value(1, x), x)
        np.testing.assert_allclose(hermite_value(2, x), x * x - 1.0)
        np.testing.assert_allclose(hermite_value(3, x), x ** 3 - 3 * x)

    def test_negative_order_rejected(self):
        with pytest.raises(StochasticError):
            hermite_value(-1, 0.0)

    def test_norms(self):
        assert hermite_norm_squared((0, 0)) == 1.0
        assert hermite_norm_squared((1, 0)) == 1.0
        assert hermite_norm_squared((2, 0)) == 2.0
        assert hermite_norm_squared((2, 3)) == 2.0 * 6.0

    def test_multi_index_count_quadratic(self):
        for d in (1, 2, 5, 10):
            indices = multi_indices_upto(d, 2)
            assert len(indices) == (d + 1) * (d + 2) // 2

    def test_multi_index_graded_order(self):
        indices = multi_indices_upto(3, 2)
        totals = [sum(ix) for ix in indices]
        assert totals == sorted(totals)
        assert indices[0] == (0, 0, 0)

    def test_basis_orthogonality_by_quadrature(self):
        """<He_a He_b> = delta_ab <He_a^2> under the Gaussian weight."""
        basis = HermiteBasis(2, order=2)
        nodes, weights = gauss_hermite_rule(6)
        X, Y = np.meshgrid(nodes, nodes, indexing="ij")
        W = np.outer(weights, weights).ravel()
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        design = basis.evaluate(pts)
        gram = design.T @ (W[:, None] * design)
        expected = np.diag(basis.norms_squared)
        np.testing.assert_allclose(gram, expected, atol=1e-10)

    def test_evaluate_shape_checked(self):
        basis = HermiteBasis(3)
        with pytest.raises(StochasticError):
            basis.evaluate(np.zeros((4, 2)))


class TestTotalDegreeBuiltOnce:
    """Each total-degree ``(dim, order)`` is built once per process;
    every instance still reads as a fresh build."""

    def test_equals_an_uncached_build(self):
        shapes = [(dim, order) for dim in range(1, 11)
                  for order in range(5)]
        for _ in range(2):  # the second pass reads the shared builds
            for dim, order in shapes:
                basis = HermiteBasis(dim, order=order)
                indices = multi_indices_upto(dim, order)
                assert basis.indices == indices
                assert basis.truncation == "total"
                np.testing.assert_array_equal(
                    basis.norms_squared,
                    [hermite_norm_squared(ix) for ix in indices])
                assert basis._max_axis_order == max(map(max, indices))

    def test_instances_own_their_indices(self):
        first = HermiteBasis(3)
        first.indices.append((9, 9, 9))
        second = HermiteBasis(3)
        assert second.indices == multi_indices_upto(3, 2)
        assert second.size == 10 and second.indices is not first.indices

    def test_norms_are_read_only(self):
        basis = HermiteBasis(4, order=3)
        with pytest.raises(ValueError, match="read-only"):
            basis.norms_squared[1] = 5.0
        np.testing.assert_array_equal(
            HermiteBasis(4, order=3).norms_squared,
            [hermite_norm_squared(ix) for ix in basis.indices])


def _column_loop_design(basis, points):
    """The design matrix built one strided column at a time: the
    reference the row-wise ``HermiteBasis.evaluate`` must reproduce
    bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    per_order = hermite_values_upto(basis._max_axis_order, points)
    out = np.empty((points.shape[0], basis.size))
    for col, index in enumerate(basis.indices):
        vals = np.ones(points.shape[0])
        for axis, order in enumerate(index):
            if order:
                vals = vals * per_order[order][:, axis]
        out[:, col] = vals
    return out


#: Total-degree bases of the serving presets' shapes plus an explicit
#: (order-adaptive) one.
_BITWISE_BASES = {
    "d7-order2": lambda: HermiteBasis(7, order=2),
    "d4-order3": lambda: HermiteBasis(4, order=3),
    "d10-order2": lambda: HermiteBasis(10, order=2),
    "explicit": lambda: HermiteBasis(5, indices=[
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0),
        (3, 0, 0, 0, 0), (1, 0, 0, 0, 2), (0, 2, 1, 0, 0),
        (0, 0, 0, 4, 0), (2, 0, 1, 0, 1)]),
}


class TestDesignBitwise:
    """The row-wise design equals the per-column loop exactly."""

    @pytest.mark.parametrize("name", sorted(_BITWISE_BASES))
    def test_evaluate_matches_column_loop(self, name):
        basis = _BITWISE_BASES[name]()
        # One evaluation block, then two full blocks and a partial one.
        for num_points in (1001, 2 * EVALUATE_BLOCK + 5):
            points = np.random.default_rng(3).standard_normal(
                (num_points, basis.dim))
            design = basis.evaluate(points)
            assert design.flags.c_contiguous
            assert np.array_equal(design,
                                  _column_loop_design(basis, points))
        assert np.array_equal(basis.evaluate(points[0]),
                              _column_loop_design(basis, points[0]))

    @pytest.mark.parametrize("outputs", [1, 6])
    @pytest.mark.parametrize("name", sorted(_BITWISE_BASES))
    def test_sample_values_match_column_loop(self, name, outputs,
                                             monkeypatch):
        basis = _BITWISE_BASES[name]()
        coefficients = np.random.default_rng(4).standard_normal(
            (basis.size, outputs))
        pce = PolynomialChaos(basis, coefficients)
        drawn = pce.sample_values(np.random.default_rng(5), 25_000,
                                  chunk_size=10_000)
        monkeypatch.setattr(HermiteBasis, "evaluate",
                            _column_loop_design)
        reference = pce.sample_values(np.random.default_rng(5), 25_000,
                                      chunk_size=10_000)
        assert np.array_equal(drawn, reference)


class TestBasisPlan:
    """``evaluate`` and ``linear_terms`` derive their per-row plan once
    per index list; a changed list gets a plan of its own."""

    def test_changed_indices_are_seen(self):
        basis = HermiteBasis(3)
        points = np.random.default_rng(6).standard_normal((50, 3))
        basis.evaluate(points)
        rows, axes = basis.linear_terms()
        assert rows.tolist() == [1, 2, 3] and axes.tolist() == [0, 1, 2]
        assert not rows.flags.writeable and not axes.flags.writeable
        basis.indices[1], basis.indices[2] = (basis.indices[2],
                                              basis.indices[1])
        basis.indices[-1] = (1, 1, 1)
        assert basis.linear_terms()[1].tolist() == [1, 0, 2]
        assert np.array_equal(basis.evaluate(points),
                              _column_loop_design(basis, points))


class TestGaussHermite:
    def test_weights_normalized(self):
        for m in (1, 2, 3, 5, 8):
            _, w = gauss_hermite_rule(m)
            assert w.sum() == pytest.approx(1.0)

    def test_moments_exact(self):
        nodes, weights = gauss_hermite_rule(5)
        # Standard normal moments: 1, 0, 1, 0, 3, 0, 15, 0, 105.
        moments = [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0]
        for k, expected in enumerate(moments):
            value = float((weights * nodes ** k).sum())
            assert value == pytest.approx(expected, abs=1e-9)

    def test_one_point_rule(self):
        nodes, weights = gauss_hermite_rule(1)
        assert nodes[0] == 0.0
        assert weights[0] == 1.0

    def test_odd_rule_centre_exact_zero(self):
        nodes, _ = gauss_hermite_rule(5)
        assert nodes[2] == 0.0

    def test_validation(self):
        with pytest.raises(StochasticError):
            gauss_hermite_rule(0)


class TestSparseGrid:
    def test_point_counts(self):
        for d in (1, 2, 3, 8, 22):
            grid = smolyak_sparse_grid(d)
            assert grid.num_points == smolyak_point_count(d)

    def test_paper_count_formula(self):
        """The counts quoted in Section IV: d=22 -> 1035, d=34 -> 2415."""
        assert paper_point_count(22) == 1035
        assert paper_point_count(34) == 2415

    def test_smolyak_vs_paper_count_gap_is_linear(self):
        for d in (5, 10, 30):
            assert (smolyak_point_count(d) - paper_point_count(d)) == d

    def test_weights_sum_to_one(self):
        for d in (2, 6, 15):
            grid = smolyak_sparse_grid(d)
            assert grid.weights.sum() == pytest.approx(1.0)

    @given(d=st.integers(2, 10), i=st.integers(0, 9), j=st.integers(0, 9))
    @settings(max_examples=30, deadline=None)
    def test_mixed_moments_exact(self, d, i, j):
        """Level-2 grids integrate the moments a quadratic chaos needs."""
        if i >= d or j >= d or i == j:
            return
        grid = smolyak_sparse_grid(d)
        z, w = grid.points, grid.weights
        assert float((w * z[:, i] ** 2).sum()) == pytest.approx(1.0)
        assert float((w * z[:, i] ** 4).sum()) == pytest.approx(3.0)
        assert float((w * z[:, i] ** 2 * z[:, j] ** 2).sum()) \
            == pytest.approx(1.0)
        assert float((w * z[:, i] * z[:, j]).sum()) == pytest.approx(
            0.0, abs=1e-10)
        assert float((w * z[:, i] ** 3 * z[:, j]).sum()) == pytest.approx(
            0.0, abs=1e-10)

    def test_contains_origin(self):
        grid = smolyak_sparse_grid(4)
        origin = np.all(grid.points == 0.0, axis=1)
        assert origin.sum() == 1

    def test_growth_is_quadratic_not_exponential(self):
        n10 = smolyak_sparse_grid(10).num_points
        n20 = smolyak_sparse_grid(20).num_points
        assert n20 / n10 < 5.0  # quadratic scaling, not 2^10

    def test_validation(self):
        with pytest.raises(StochasticError):
            smolyak_sparse_grid(0)
        with pytest.raises(StochasticError):
            paper_point_count(0)

    def test_rebuilds_are_bitwise_identical(self):
        """Exact node-table merging is deterministic: same points and
        weights bit for bit, no rounding-sensitive dict keys."""
        for level in (1, 2, 3):
            a = smolyak_sparse_grid(3, level=level)
            b = smolyak_sparse_grid(3, level=level)
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_nodes_are_exact_rule_values(self):
        """Grid coordinates are the exact 1-D Gauss-Hermite nodes —
        the rounded-key merge artifact is gone."""
        grid = smolyak_sparse_grid(2, level=2)
        values = set()
        for level in range(3):
            values.update(gauss_hermite_rule((1, 3, 5)[level])[0])
        for coordinate in grid.points.ravel():
            assert coordinate in values


class TestSparseGridExactness:
    """Pin the hierarchy the adaptive engine refines over: the
    level-``L`` grid integrates every monomial of total degree
    ``<= 2 L + 1`` exactly, and its weights always sum to 1."""

    #: Standard-normal moments E[z^k] for k = 0..9.
    MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0, 0.0)

    @staticmethod
    def _monomials(dim, degree):
        from itertools import product as iproduct
        for powers in iproduct(range(degree + 1), repeat=dim):
            if sum(powers) <= degree:
                yield powers

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_total_degree_exactness(self, dim, level):
        grid = smolyak_sparse_grid(dim, level=level)
        degree = 2 * level + 1
        for powers in self._monomials(dim, degree):
            expected = 1.0
            for power in powers:
                expected *= self.MOMENTS[power]
            value = grid.weights.copy()
            for axis, power in enumerate(powers):
                if power:
                    value = value * grid.points[:, axis] ** power
            assert float(value.sum()) == pytest.approx(
                expected, abs=5e-11), \
                f"monomial {powers} at level {level}"

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_weights_sum_to_one(self, level):
        for dim in (1, 2, 4):
            grid = smolyak_sparse_grid(dim, level=level)
            assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestTensorGrid:
    def test_count(self):
        grid = tensor_grid(3, points_per_axis=3)
        assert grid.num_points == 27
        assert grid.weights.sum() == pytest.approx(1.0)

    def test_moments(self):
        grid = tensor_grid(2, points_per_axis=4)
        z, w = grid.points, grid.weights
        assert float((w * z[:, 0] ** 2).sum()) == pytest.approx(1.0)
        assert float((w * z[:, 0] ** 2 * z[:, 1] ** 2).sum()) \
            == pytest.approx(1.0)

    def test_infeasible_rejected(self):
        with pytest.raises(StochasticError):
            tensor_grid(30, points_per_axis=3)
