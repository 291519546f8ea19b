"""Sparse-grid spectral stochastic collocation (SSCM) driver.

Section II.B of the paper: expand the quantity of interest in a
second-order Hermite chaos, evaluate the deterministic solver at the
sparse-grid collocation points, project to get the coefficients, and
read the mean and variance off the expansion (eqs. 4-5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import StochasticError
from repro.obs.trace import span
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import PolynomialChaos
from repro.stochastic.sparse_grid import SparseGrid, smolyak_sparse_grid


@dataclass
class SSCMResult:
    """Quadratic statistical model plus run accounting.

    Attributes
    ----------
    pce:
        The fitted :class:`~repro.stochastic.pce.PolynomialChaos`.
    num_runs:
        Deterministic solver evaluations used (the sparse-grid size).
    wall_time:
        Seconds spent evaluating the solver.
    grid:
        The sparse grid used.
    """

    pce: PolynomialChaos
    num_runs: int
    wall_time: float
    grid: SparseGrid

    @property
    def mean(self) -> np.ndarray:
        return self.pce.mean

    @property
    def std(self) -> np.ndarray:
        return self.pce.std

    @property
    def output_names(self):
        return self.pce.output_names


def evaluate_points(points: np.ndarray, solve_fn,
                    solve_many=None) -> np.ndarray:
    """One solve per collocation point, stacked by row: the evaluation
    path of both engines.  ``solve_many`` (e.g. a
    :class:`~repro.analysis.parallel.ParallelWaveEvaluator`) takes the
    whole block in one call, bitwise-equal to the ``solve_fn`` loop."""
    if solve_many is not None:
        values = np.atleast_2d(np.asarray(solve_many(points), dtype=float))
        if values.shape[0] != points.shape[0]:
            raise StochasticError(
                f"solve_many returned {values.shape[0]} rows for "
                f"{points.shape[0]} points")
        return values
    return np.vstack([np.atleast_1d(np.asarray(solve_fn(point),
                                               dtype=float))
                      for point in points])


def run_sscm(solve_fn, dim: int, output_names=None, level: int = 2,
             grid: SparseGrid = None, fit: str = "quadrature",
             solve_many=None) -> SSCMResult:
    """Build the quadratic statistical model by sparse-grid collocation.

    Parameters
    ----------
    solve_fn:
        Callable ``zeta (dim,) -> QoI vector``; one deterministic
        coupled solve per call.
    dim:
        Number of reduced independent variables ``d``.
    output_names:
        Labels of the QoI components.
    level:
        Smolyak level (2 supports the paper's quadratic chaos).
    grid:
        Optional pre-built grid (e.g. a tensor grid for ablations).
    fit:
        ``"quadrature"`` (spectral projection, the paper's method) or
        ``"regression"`` (least squares on the same points).
    solve_many:
        Optional batched evaluator ``(n, dim) points -> (n, outputs)``
        — the whole fixed grid is one wave (see
        :func:`evaluate_points`).
    """
    if grid is None:
        grid = smolyak_sparse_grid(dim, level=level)
    if grid.dim != dim:
        raise StochasticError(
            f"grid dimension {grid.dim} does not match dim {dim}")
    start = time.perf_counter()
    total = grid.num_points
    with span("collocation", points=total):
        values = evaluate_points(grid.points, solve_fn, solve_many)
    wall = time.perf_counter() - start

    basis = HermiteBasis(dim, order=2)
    with span("fit", method=fit, terms=len(basis.indices)):
        if fit == "quadrature":
            pce = PolynomialChaos.fit_quadrature(
                basis, grid.points, grid.weights, values,
                output_names=output_names)
        elif fit == "regression":
            pce = PolynomialChaos.fit_regression(
                basis, grid.points, values, output_names=output_names)
        else:
            raise StochasticError(f"unknown fit method {fit!r}")
    return SSCMResult(pce=pce, num_runs=total, wall_time=wall, grid=grid)
