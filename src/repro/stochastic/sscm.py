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


def run_sscm(solve_fn, dim: int, output_names=None, order: int = 2,
             level: int = 2, grid: SparseGrid = None,
             fit: str = "quadrature", progress=None,
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
    order:
        Chaos order (2 in the paper).
    level:
        Smolyak level (2 supports the quadratic chaos).
    grid:
        Optional pre-built grid (e.g. a tensor grid for ablations).
    fit:
        ``"quadrature"`` (spectral projection, the paper's method) or
        ``"regression"`` (least squares on the same points).
    progress:
        Optional callable ``(completed, total) -> None``.
    solve_many:
        Optional batched evaluator ``(n, dim) points -> (n, outputs)``
        — the whole fixed grid is one wave, so a
        :class:`~repro.analysis.parallel.ParallelWaveEvaluator` plugs
        in unchanged (bitwise-identical to the per-point loop, which
        stays the default).
    """
    if grid is None:
        grid = smolyak_sparse_grid(dim, level=level)
    if grid.dim != dim:
        raise StochasticError(
            f"grid dimension {grid.dim} does not match dim {dim}")
    start = time.perf_counter()
    total = grid.num_points
    with span("collocation", points=total):
        if solve_many is not None:
            values = np.atleast_2d(np.asarray(solve_many(grid.points),
                                              dtype=float))
            if values.shape[0] != total:
                raise StochasticError(
                    f"solve_many returned {values.shape[0]} rows for "
                    f"{total} points")
            if progress is not None:
                progress(total, total)
        else:
            values = []
            for k, point in enumerate(grid.points):
                values.append(np.atleast_1d(np.asarray(solve_fn(point),
                                                       dtype=float)))
                if progress is not None:
                    progress(k + 1, total)
            values = np.vstack(values)
    wall = time.perf_counter() - start

    basis = HermiteBasis(dim, order=order)
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
