"""Tests for the linear solver wrapper and damped Newton."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.solver.newton as newton
from repro.errors import ConvergenceError, ReproError, SingularSystemError
from repro.solver import (
    NewtonOptions,
    SparseFactor,
    damped_newton,
    solve_sparse,
)


class TestSolveSparse:
    def test_identity(self):
        x = solve_sparse(sp.eye(5, format="csr"), np.arange(5.0))
        np.testing.assert_allclose(x, np.arange(5.0))

    def test_badly_scaled_system(self, rng):
        """Equilibration handles ~30 orders of magnitude of row scale."""
        n = 40
        base = sp.random(n, n, density=0.2, random_state=0).tocsr()
        base = base + sp.eye(n) * 2.0
        scales = 10.0 ** rng.uniform(-15, 15, n)
        matrix = sp.diags(scales) @ base
        x_true = rng.standard_normal(n)
        x = solve_sparse(matrix.tocsr(), matrix @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-6)

    def test_complex_system(self, rng):
        n = 30
        matrix = (sp.random(n, n, density=0.3, random_state=1)
                  + sp.eye(n) * (2.0 + 1.0j)).tocsr()
        x_true = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_sparse(matrix, matrix @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-8)

    def test_multiple_rhs(self):
        matrix = sp.eye(4, format="csr") * 2.0
        rhs = np.eye(4)[:, :2]
        x = solve_sparse(matrix, rhs)
        np.testing.assert_allclose(x, rhs / 2.0)

    def test_empty_row_detected(self):
        matrix = sp.csr_matrix((3, 3))
        matrix[0, 0] = 1.0
        with pytest.raises(SingularSystemError):
            solve_sparse(matrix.tocsr(), np.ones(3))

    def test_singular_detected(self):
        matrix = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularSystemError):
            solve_sparse(matrix, np.ones(2))

    def test_shape_validation(self):
        with pytest.raises(SingularSystemError):
            solve_sparse(sp.eye(3).tocsr(), np.ones(4))
        with pytest.raises(SingularSystemError):
            solve_sparse(sp.csr_matrix((2, 3)), np.ones(2))


class TestDampedNewton:
    def test_linear_system_one_step(self):
        matrix = np.diag([2.0, 4.0])

        def rj(x):
            return matrix @ x - np.array([2.0, 8.0]), sp.csr_matrix(matrix)

        x, iters = damped_newton(rj, np.zeros(2))
        np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-10)
        assert iters <= 2

    def test_scalar_nonlinear(self):
        def rj(x):
            r = np.array([x[0] ** 3 - 8.0])
            j = sp.csr_matrix(np.array([[3.0 * x[0] ** 2]]))
            return r, j

        x, _ = damped_newton(rj, np.array([5.0]))
        assert x[0] == pytest.approx(2.0, rel=1e-8)

    def test_exponential_needs_damping(self):
        """exp-type residual (like nonlinear Poisson) from a bad guess."""
        def rj(x):
            r = np.array([np.exp(x[0]) - np.exp(2.0)])
            j = sp.csr_matrix(np.array([[np.exp(x[0])]]))
            return r, j

        options = NewtonOptions(max_iterations=100, max_step=1.0)
        x, _ = damped_newton(rj, np.array([-20.0]), options)
        assert x[0] == pytest.approx(2.0, rel=1e-7)

    def test_iteration_cap(self):
        def rj(x):
            # Gradient points the wrong way: never converges.
            return np.array([1.0]), sp.csr_matrix(np.array([[1e-30]]))

        with pytest.raises(ConvergenceError):
            damped_newton(rj, np.zeros(1),
                          NewtonOptions(max_iterations=3, max_step=0.5))

    def test_empty_problem(self):
        x, iters = damped_newton(lambda x: (np.zeros(0),
                                            sp.csr_matrix((0, 0))),
                                 np.zeros(0))
        assert x.size == 0
        assert iters == 0

    def test_2d_rosenbrock_gradient(self):
        """Find the stationary point of Rosenbrock via its gradient."""
        def rj(x):
            a, b = 1.0, 10.0
            r = np.array([
                -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                2 * b * (x[1] - x[0] ** 2),
            ])
            j = np.array([
                [2 - 4 * b * (x[1] - 3 * x[0] ** 2), -4 * b * x[0]],
                [-4 * b * x[0], 2 * b],
            ])
            return r, sp.csr_matrix(j)

        x, _ = damped_newton(rj, np.array([0.5, 0.5]),
                             NewtonOptions(max_iterations=200,
                                           max_step=0.5))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-6)


class TestNewtonOptions:
    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 0},
        {"max_iterations": -3},
        {"update_tolerance": 0.0},
        {"update_tolerance": -1e-10},
        {"max_step": -1.0},
        {"max_step": 0.0},
        {"armijo_shrink": 0.0},
        {"armijo_shrink": 1.0},
        {"max_halvings": -1},
    ])
    def test_rejects_values_the_iteration_cannot_run_with(self, kwargs):
        with pytest.raises(ReproError, match=next(iter(kwargs))):
            NewtonOptions(**kwargs)

    def test_accepts_the_documented_ranges(self):
        NewtonOptions(max_iterations=1, update_tolerance=1e-300,
                      max_step=None, armijo_shrink=0.999,
                      max_halvings=0)


def _arctan_system():
    """``arctan(x_i - c_i) = 0``, root ``c``, with a lazily assembled
    Jacobian; ``calls`` gets ``"R"`` per evaluation, ``"J"`` per
    assembly.  Far from the root a full Newton step overshoots, so the
    line search halves."""
    root = np.array([2.0, -1.0, 0.5])
    calls = []

    def rj(x):
        def jacobian():
            calls.append("J")
            return sp.diags(1.0 / (1.0 + (x - root) ** 2))
        calls.append("R")
        return np.arctan(x - root), jacobian

    return rj, calls, root


def _steps(kind: str) -> float:
    return newton._STEPS.value(kind=kind)


class TestChordNewton:
    def test_plain_newton_solves_once_per_step(self, monkeypatch):
        """The contract per-layer tracing binds: without a reference,
        every step is one ``repro.solver.newton.solve_sparse`` call."""
        calls = []

        def counting(matrix, rhs):
            calls.append(1)
            return solve_sparse(matrix, rhs)

        monkeypatch.setattr(newton, "solve_sparse", counting)
        x, iterations = damped_newton(
            lambda x: (x * x - 4.0, sp.diags(2.0 * x)), np.array([3.0]))
        assert x[0] == pytest.approx(2.0)
        assert len(calls) == iterations > 1

    def test_lazy_jacobian_assembled_only_to_factorize(self):
        rj, calls, root = _arctan_system()
        before = _steps("newton")
        x, iterations = damped_newton(rj, root + 3.0)
        np.testing.assert_allclose(x, root, rtol=0, atol=1e-13)
        assert iterations == _steps("newton") - before
        # The line search evaluated more points than it accepted.
        assert calls.count("R") > iterations + 1
        assert calls.count("J") == iterations

        del calls[:]
        before = (_steps("chord"), _steps("newton"))
        x, iterations = damped_newton(rj, root + 0.3,
                                      reference=SparseFactor(sp.eye(3)))
        assert "J" not in calls
        assert (_steps("chord") - before[0],
                _steps("newton") - before[1]) == (iterations, 0)
        np.testing.assert_allclose(x, root, rtol=0, atol=1e-13)

    def test_chord_stops_below_the_newton_rule(self):
        """The chord contracts linearly, so it runs on to 1e-3 of
        ``update_tolerance`` and lands as close to the root."""
        rj, _, root = _arctan_system()
        # A reference 20% too stiff: the chord contracts by 0.2 a step.
        reference = SparseFactor(1.25 * sp.eye(3))
        fallbacks = newton._CHORD_FALLBACKS.value()
        x, iterations = damped_newton(rj, root + 0.1,
                                      reference=reference)
        assert newton._CHORD_FALLBACKS.value() == fallbacks
        assert iterations > 10
        assert np.max(np.abs(x - root)) < 1e-13

    @pytest.mark.parametrize("scale", [100.0, -1.0],
                             ids=["stalls", "ascends"])
    def test_bad_reference_falls_back_to_newton(self, scale):
        """A reference far too stiff stops contracting; one of the
        wrong sign fails its line search.  Both switch to Newton."""
        rj, _, root = _arctan_system()
        fallbacks = newton._CHORD_FALLBACKS.value()
        before = _steps("newton")
        x, _ = damped_newton(rj, root + 0.3,
                             reference=SparseFactor(scale * sp.eye(3)))
        assert newton._CHORD_FALLBACKS.value() == fallbacks + 1
        assert _steps("newton") > before
        np.testing.assert_allclose(x, root, rtol=0, atol=1e-13)
