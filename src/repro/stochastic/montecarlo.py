"""Monte-Carlo reference driver.

The paper validates the SSCM statistics against a 10000-run Monte-Carlo
simulation on the *same* deterministic solver, sampling the full
(unreduced) correlated variables.  This driver does exactly that; the
run count is a parameter because the 1/sqrt(N) convergence makes the
full 10000 unnecessary for shape checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import StochasticError


@dataclass
class MonteCarloResult:
    """Sample statistics plus run accounting."""

    mean: np.ndarray
    std: np.ndarray
    num_runs: int
    wall_time: float
    output_names: list = None
    samples: np.ndarray = None

    def standard_error(self) -> np.ndarray:
        """Standard error of the MC mean estimate."""
        return self.std / np.sqrt(self.num_runs)


def run_monte_carlo(sample_fn, num_runs: int, seed: int = 0,
                    output_names=None,
                    keep_samples: bool = False) -> MonteCarloResult:
    """Plain Monte Carlo over a sampling function.

    Parameters
    ----------
    sample_fn:
        Callable ``rng -> QoI vector``; draws its own random inputs from
        the provided generator and runs one deterministic solve.
    num_runs:
        Number of samples (the paper uses 10000).
    seed:
        Seed of the :class:`numpy.random.Generator` driving the run.
    keep_samples:
        Retain the raw ``(num_runs, k)`` sample matrix (for histograms
        and convergence studies).
    """
    if num_runs < 2:
        raise StochasticError(f"num_runs must be >= 2, got {num_runs}")
    rng = np.random.default_rng(seed)
    values = None
    start = time.perf_counter()
    for k in range(num_runs):
        # ravel keeps the historically-accepted (1, k) row vectors.
        sample = np.asarray(sample_fn(rng), dtype=float).ravel()
        if values is None:
            # The QoI width is only known after the first evaluation;
            # preallocate the full matrix then instead of growing a list.
            values = np.empty((num_runs, sample.size))
        if sample.shape != (values.shape[1],):
            raise StochasticError(
                f"sample_fn returned shape {sample.shape} on run {k}, "
                f"expected ({values.shape[1]},)")
        values[k] = sample
    wall = time.perf_counter() - start
    return MonteCarloResult(
        mean=values.mean(axis=0),
        std=values.std(axis=0, ddof=1),
        num_runs=num_runs,
        wall_time=wall,
        output_names=list(output_names) if output_names else None,
        samples=values if keep_samples else None,
    )
