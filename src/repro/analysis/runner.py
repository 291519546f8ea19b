"""Pipeline runners: SSCM and Monte Carlo on a VariationalProblem.

``run_sscm_analysis`` (alias ``run_problem``) collocates either on the
paper's fixed level-2 Smolyak grid or — when a
:class:`~repro.adaptive.driver.AdaptiveConfig` is passed as
``refinement`` — through the dimension-adaptive engine, which spends
solves only on the stochastic directions whose surplus indicators say
they matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adaptive.driver import (
    AdaptiveConfig,
    WarmStart,
    run_adaptive_sscm,
)
from repro.errors import StochasticError
from repro.obs.trace import span
from repro.stochastic.montecarlo import MonteCarloResult, run_monte_carlo
from repro.stochastic.reduction import ReducedSpace, reduce_groups
from repro.stochastic.sscm import SSCMResult, run_sscm
from repro.variation.random_field import stable_cholesky
from repro.analysis.parallel import ParallelWaveEvaluator
from repro.analysis.problem import VariationalProblem
from repro.analysis.weights import nominal_weights


@dataclass
class AnalysisResult:
    """SSCM pipeline output with the reduction bookkeeping."""

    sscm: SSCMResult
    reduced_space: ReducedSpace

    @property
    def mean(self) -> np.ndarray:
        return self.sscm.mean

    @property
    def std(self) -> np.ndarray:
        return self.sscm.std

    @property
    def num_runs(self) -> int:
        return self.sscm.num_runs

    @property
    def dim(self) -> int:
        return self.reduced_space.dim

    def summary(self) -> str:
        return (f"SSCM d={self.dim}, runs={self.num_runs}, "
                f"{self.reduced_space.summary()}")

    def reduction_metadata(self) -> list:
        """Per-group reduction bookkeeping as JSON-serializable dicts.

        This is what the serving layer persists next to the fitted PCE
        so a cached surrogate still documents how its reduced variables
        map back to the physical perturbation groups.
        """
        return [{
            "name": g.group.name,
            "kind": g.group.kind,
            "full_size": int(g.reduction.full_size),
            "reduced_size": int(g.reduction.reduced_size),
            "energy_captured": float(g.reduction.energy_captured),
            "offset": int(g.offset),
        } for g in self.reduced_space.groups]

    def refinement_metadata(self) -> dict:
        """Adaptive-build provenance (accepted index set, convergence
        trace, stopping config) as a JSON-serializable dict, or
        ``None`` for fixed-grid builds.  Persisted by the serving
        layer so adaptive surrogates replay from the store with zero
        solves *and* full audit history.
        """
        metadata = getattr(self.sscm, "refinement_metadata", None)
        return metadata() if callable(metadata) else None

    def basis_metadata(self) -> dict:
        """The fitted chaos basis identity (kind, order, size) as a
        JSON-serializable dict — ``total-degree`` order 2 for every
        fixed-grid or default adaptive build, ``explicit`` for
        order-adaptive ones.  Persisted in the surrogate sidecar so a
        stored entry documents what its coefficient rows mean.
        """
        return self.sscm.pce.basis.describe()


def run_sscm_analysis(problem: VariationalProblem, method: str = "wpfa",
                      energy: float = 0.95,
                      max_variables_by_group: dict = None,
                      level: int = 2, fit: str = "quadrature",
                      nominal_solution=None,
                      refinement: AdaptiveConfig = None,
                      problem_builder=None,
                      warm_start: WarmStart = None,
                      workers: int = None,
                      progress=None) -> AnalysisResult:
    """Full SSCM pipeline (paper Sections II.B + III.C).

    1. Solve the nominal structure and derive the wPFA weights.
    2. Reduce every perturbation group ((w)PFA).
    3. Collocate the deterministic solver over the ``d`` reduced
       variables: on the fixed level-``level`` sparse grid, or — when
       ``refinement`` carries an
       :class:`~repro.adaptive.driver.AdaptiveConfig` — through the
       dimension-adaptive engine under its ``tol`` / ``max_solves`` /
       ``max_level`` stopping controls.  ``level`` is then ignored
       (the engine grows its own grid) and ``fit`` must stay
       ``"quadrature"`` (the engine owns its projection); every
       collocation point still rides the multi-port
       factorization-reuse solve paths inside ``evaluate_sample``.
    4. Fit the quadratic Hermite chaos and read off mean / std.

    Parameters
    ----------
    problem : VariationalProblem
        The stochastic experiment to collocate.
    method : {"wpfa", "pfa"}, default "wpfa"
        Per-group reduction; ``"wpfa"`` weights the covariance with
        the nominal solution (one extra solve).
    energy : float, default 0.95
        Variance fraction retained per perturbation group.
    max_variables_by_group : dict, optional
        ``{group name: p}`` hard caps on the reduced counts.
    level : int, default 2
        Fixed Smolyak level (ignored under ``refinement``).
    fit : {"quadrature", "regression"}, default "quadrature"
        Chaos-fit strategy of the fixed-grid path; must stay
        ``"quadrature"`` under ``refinement``.
    nominal_solution : ACSolution, optional
        Reuse an existing nominal solve for the wPFA weights.
    refinement : AdaptiveConfig or dict, optional
        Switches collocation to the dimension-adaptive engine.
    problem_builder : callable, optional
        Zero-argument *picklable* callable rebuilding ``problem`` in
        worker processes (e.g. ``functools.partial`` over a preset, or
        ``spec.build_problem``).  Only consulted when ``workers > 1``.
    warm_start : WarmStart, optional
        Seed the adaptive build from a previous build's accepted index
        set (see :class:`~repro.adaptive.driver.WarmStart`); requires
        ``refinement``.  The serving layer wires this automatically
        from the surrogate store's nearest stored sibling spec.
    workers : int, optional
        Fan the deterministic solves over this many worker processes
        — for *both* collocation modes: each refinement wave, or the
        whole fixed level-``level`` grid, is one
        :class:`~repro.analysis.parallel.ParallelWaveEvaluator` call
        (bitwise-identical to the serial loop).  Pure execution
        policy, so it is an argument here and never part of a spec;
        above 1 it requires ``problem_builder``.
    progress : callable, optional
        ``(completed, total)`` callback for the collocation loop.

    Returns
    -------
    AnalysisResult
        The fitted surrogate plus reduction (and, for adaptive builds,
        refinement) bookkeeping.
    """
    if isinstance(refinement, dict):
        refinement = AdaptiveConfig.from_dict(refinement)
    if refinement is not None and fit != "quadrature":
        # The adaptive engine fits by combination projection; a
        # regression request would be silently overridden.
        raise StochasticError(
            f"fit={fit!r} is incompatible with adaptive "
            f"refinement (which owns its projection)")
    if warm_start is not None and refinement is None:
        raise StochasticError(
            "warm_start only applies to adaptive builds; pass a "
            "refinement config")
    if workers is not None \
            and (not isinstance(workers, int) or isinstance(workers, bool)
                 or workers < 1):
        raise StochasticError(
            f"workers must be a positive integer or None, "
            f"got {workers!r}")
    if workers is not None and workers > 1 and problem_builder is None:
        raise StochasticError(
            "workers > 1 needs a picklable problem_builder "
            "so worker processes can rebuild the problem (e.g. "
            "functools.partial over a preset, or spec.build_problem)")
    weights = None
    if method == "wpfa":
        with span("nominal_solve"):
            weights = nominal_weights(problem, solution=nominal_solution)
    with span("reduction", method=method):
        reduced_space = reduce_groups(
            problem.groups, method=method, weights_by_group=weights,
            energy=energy, max_variables_by_group=max_variables_by_group)

    def solve_fn(zeta):
        xi_by_group = reduced_space.split(zeta)
        return problem.evaluate_sample(xi_by_group)

    evaluator = None
    if workers is not None and workers > 1:
        evaluator = ParallelWaveEvaluator(
            problem_builder, reduced_space, num_workers=workers)
    try:
        if refinement is not None:
            sscm = run_adaptive_sscm(solve_fn, reduced_space.dim,
                                     config=refinement,
                                     output_names=problem.qoi_names,
                                     solve_many=evaluator,
                                     warm_start=warm_start,
                                     progress=progress)
        else:
            # The fixed grid is one big wave: the same evaluator that
            # fans adaptive refinement waves digests it whole,
            # bitwise-identical to the serial loop.
            sscm = run_sscm(solve_fn, reduced_space.dim,
                            output_names=problem.qoi_names, level=level,
                            fit=fit, progress=progress,
                            solve_many=evaluator)
    finally:
        if evaluator is not None:
            evaluator.close()
    return AnalysisResult(sscm=sscm, reduced_space=reduced_space)


#: The problem-level entry point by its serving-facing name: "run this
#: problem", fixed-grid by default, adaptive when ``refinement`` is set.
run_problem = run_sscm_analysis


def run_mc_analysis(problem: VariationalProblem, num_runs: int,
                    seed: int = 0, keep_samples: bool = False,
                    progress=None) -> MonteCarloResult:
    """Monte-Carlo reference on the *full* correlated variables.

    Unlike the SSCM path this samples every group from its complete
    covariance (no reduction), exactly as the paper's 10000-run MC
    benchmark does, so the comparison includes the (w)PFA truncation
    error.
    """
    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    groups = problem.groups

    def sample_fn(rng):
        xi_by_group = {
            group.name: factors[group.name]
            @ rng.standard_normal(group.size)
            for group in groups
        }
        return problem.evaluate_sample(xi_by_group)

    return run_monte_carlo(sample_fn, num_runs, seed=seed,
                           output_names=problem.qoi_names,
                           keep_samples=keep_samples, progress=progress)
