"""Budgeted dimension-adaptive refinement loop (Gerstner-Griebel).

The fixed level-2 Smolyak grid spends ``2 d^2 + 4 d + 1`` solves no
matter how anisotropic the reduced variables are.  The adaptive driver
instead grows a downward-closed index set one index at a time, always
refining the direction with the largest surplus indicator, until the
global error estimate drops under ``tol`` or the solve budget runs
out.  Each accepted index opens a *wave* of admissible neighbors; the
wave's new collocation points are collected and handed to the
``solve_many`` hook in a single call when one is supplied (a build
run with ``workers=N`` fans exactly that call over the
``analysis.parallel`` process pool — see
:class:`~repro.analysis.parallel.ParallelWaveEvaluator`), falling back
to a per-point loop in which every solve still rides the
multi-port/factorization-reuse paths inside ``evaluate_sample``.

A build can also be *warm-started* from a previous one: a
:class:`WarmStart` (typically recovered from a stored refinement
sidecar by :meth:`WarmStart.from_refinement`) seeds the multi-index
set with the source build's accepted indices instead of the bare root
index.  The seeded indices are evaluated in one batched wave, their
surpluses are compared against the source build's recorded indicators,
and when the measured *drift* keeps the transferred frontier error
under ``tol`` the build certifies immediately — no frontier
exploration at all.  See ``docs/ADAPTIVE.md`` for the exact semantics
and the honesty caveats of that certification.

Known limitation (inherent to the Gerstner-Griebel indicator): a
direction whose *every* effect is purely interactive — exactly zero
response along its own axis but a nonzero cross term — produces a zero
axis surplus, so the pair index that would reveal it never becomes
admissible before the tolerance is met.  Physical reduced variables
always carry an axis response (each one directly perturbs geometry or
doping), and a ``tol=0`` run with a ``max_level`` cap exhausts the
whole simplex and is immune: at ``tol=0`` the tolerance never counts
as met, so only the level cap or the solve budget ends the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import StochasticError
from repro.obs.trace import span
from repro.stochastic.hermite import HermiteBasis
from repro.stochastic.pce import PolynomialChaos
from repro.stochastic.sparse_grid import SparseGrid
from repro.adaptive.grid import IncrementalGrid
from repro.adaptive.indices import MultiIndexSet
from repro.adaptive.indices import combination_coefficients
from repro.adaptive.indices import is_downward_closed
from repro.adaptive.surplus import (
    adaptive_basis_indices,
    difference_quadrature,
    integral_scale,
    surplus_indicator,
    tensor_degree_caps,
)

#: Valid values of :attr:`AdaptiveConfig.basis`.
BASIS_MODES = ("order2", "adaptive")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Stopping controls of the adaptive refinement loop.

    Every field is part of the *identity* of the build: two builds
    with the same config produce the same surrogate — bitwise for
    cold builds, within ``tol`` when one of them was warm-certified
    from a seed — and therefore share a cache key.  Execution policy
    (the worker process count) is not a field: it is an argument of
    the call that runs the build.

    Parameters
    ----------
    tol : float, default 1e-4
        Relative tolerance on the global error estimate (the sum of
        active surplus indicators, each normalized by the running
        integral magnitude).  0 refines until the budget or the level
        cap exhausts the admissible indices, so it needs ``max_level``
        or ``max_solves``.
    max_solves : int or None, default None
        Hard cap on deterministic solver evaluations (collocation
        points); ``None`` means unbounded.  Waves that would overshoot
        the cap are skipped, never truncated mid-tensor.
    max_level : int or None, default None
        Cap on the *total* level ``|l|`` of any accepted index
        (``max_level=2`` confines refinement to subsets of the fixed
        level-2 Smolyak simplex); ``None`` means uncapped.
    basis : {"order2", "adaptive"}, default "order2"
        Chaos truncation of the final fit.  ``"order2"`` keeps the
        paper's fixed quadratic basis (bitwise-unchanged results);
        ``"adaptive"`` lets the accepted index set drive the basis —
        every tensor rule contributes the terms it resolves without
        aliasing (:func:`~repro.adaptive.surplus.adaptive_basis_indices`),
        so ``max_level > 2`` buys representational accuracy, not just
        certification.  Part of the build identity (and cache key);
        the refinement *path* itself is basis-independent.
    """

    tol: float = 1e-4
    max_solves: int = None
    max_level: int = None
    basis: str = "order2"

    def __post_init__(self) -> None:
        tol = self.tol
        if not isinstance(tol, (int, float)) or not np.isfinite(tol) \
                or tol < 0:
            raise StochasticError(
                f"tol must be a finite non-negative number, got {tol!r}")
        if tol == 0 and self.max_level is None \
                and self.max_solves is None:
            raise StochasticError(
                "tol=0 never certifies, so it needs a max_level or "
                "max_solves cap to stop")
        if self.basis not in BASIS_MODES:
            raise StochasticError(
                f"basis must be one of {list(BASIS_MODES)}, "
                f"got {self.basis!r}")
        for name in ("max_solves", "max_level"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise StochasticError(
                    f"{name} must be a positive integer or None, "
                    f"got {value!r}")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Fully-resolved wire form (the spec cache keys hash it).

        Returns
        -------
        dict
            JSON-scalar mapping accepted back by :meth:`from_dict`.
        """
        data = {"tol": float(self.tol),
                "max_solves": self.max_solves,
                "max_level": self.max_level}
        if self.basis != "order2":
            # Identity-affecting, but omitted at the default so every
            # order-2 spec keeps the exact canonical form (and cache
            # key) it had before order-adaptive bases existed.
            data["basis"] = self.basis
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveConfig":
        """Build a config from its (possibly sparse) dict form.

        Parameters
        ----------
        data : dict or AdaptiveConfig
            Any subset of ``tol``/``max_solves``/``max_level``/
            ``basis``; missing names take the defaults, int-valued
            floats are normalized.  A live config passes through.

        Returns
        -------
        AdaptiveConfig
        """
        if isinstance(data, AdaptiveConfig):
            return data
        if not isinstance(data, dict):
            raise StochasticError(
                f"adaptive config must be a mapping, "
                f"got {type(data).__name__}")
        unknown = set(data) - {"tol", "max_solves", "max_level",
                               "basis"}
        if unknown:
            raise StochasticError(
                f"unknown adaptive settings {sorted(unknown)}; "
                f"valid: ['basis', 'max_level', 'max_solves', 'tol']")
        kwargs = {}
        for name in ("tol", "max_solves", "max_level"):
            if name in data and data[name] is not None:
                value = data[name]
                if name != "tol" and isinstance(value, float) \
                        and value.is_integer():
                    value = int(value)
                kwargs[name] = value
            elif name in data:
                kwargs[name] = None
        if data.get("basis") is not None:
            # A None basis means "the default", matching the omission
            # in to_dict.
            kwargs["basis"] = data["basis"]
        return cls(**kwargs)


@dataclass(frozen=True)
class WarmStart:
    """Seed for a refinement run, recovered from a previous build.

    Parameters
    ----------
    indices : tuple of tuple of int
        The source build's *accepted* (old) multi-indices, including
        the root.  They seed the new build's index set wholesale, so
        refinement starts from the source's explored interior instead
        of the bare root index.
    frontier_error : float
        The source build's final error estimate — the sum of its
        active frontier indicators, i.e. what certified its tolerance.
        Transferred to the new build scaled by the measured indicator
        drift; ``inf`` disables certification (the frontier is then
        re-explored and re-measured from scratch).
    indicators : dict
        ``{accepted index: indicator at acceptance}`` from the source
        build's trace.  The ratio of freshly measured indicators to
        these stored ones is the *drift* used to rescale
        ``frontier_error``.
    source : str, optional
        Provenance label (the source surrogate's cache key); recorded
        as ``warm_start_source`` in the refinement sidecar.
    """

    indices: tuple
    frontier_error: float
    indicators: dict = field(default_factory=dict)
    source: str = None

    @classmethod
    def from_refinement(cls, refinement: dict,
                        source: str = None) -> "WarmStart":
        """Recover a seed from a stored refinement sidecar.

        Parameters
        ----------
        refinement : dict
            A :meth:`AdaptiveResult.refinement_metadata` mapping (as
            persisted under ``refinement`` in the surrogate store).
            Older sidecars without the ``accepted`` field fall back to
            the trace, which records every accepted index in order.
        source : str, optional
            Provenance label, typically the stored entry's cache key.

        Returns
        -------
        WarmStart
        """
        if not isinstance(refinement, dict):
            raise StochasticError(
                f"refinement metadata must be a mapping, "
                f"got {type(refinement).__name__}")
        trace = refinement.get("trace") or []
        accepted = refinement.get("accepted")
        if accepted is None:
            accepted = [entry["index"] for entry in trace]
        indices = tuple(sorted({tuple(int(lv) for lv in index)
                                for index in accepted}))
        if not indices:
            raise StochasticError(
                "refinement metadata carries no accepted indices to "
                "warm-start from")
        # Prefer the final-scale accepted indicators (present since
        # they were introduced, and carried even by warm-certified
        # builds whose trace is empty); fall back to the acceptance
        # trace for older sidecars.
        pairs = refinement.get("accepted_indicators")
        if pairs:
            indicators = {tuple(int(lv) for lv in index):
                          float(indicator)
                          for index, indicator in pairs}
        else:
            indicators = {tuple(int(lv) for lv in entry["index"]):
                          float(entry["indicator"])
                          for entry in trace}
        error = refinement.get("error_estimate")
        frontier_error = float(error) if error is not None \
            else float("inf")
        return cls(indices=indices, frontier_error=frontier_error,
                   indicators=indicators, source=source)

    def uncertified(self) -> "WarmStart":
        """A copy that can seed but never certify.

        ``frontier_error`` is forced to ``inf``, so the driver adopts
        the seeded interior wholesale but always re-opens and
        re-measures the frontier instead of transferring the source's
        tolerance certification.  The serving pipeline applies this to
        tol-relaxed seeds: the source certified a *different*
        tolerance than this build must meet, so only its explored
        index set — not its stopping evidence — carries over.
        """
        return replace(self, frontier_error=float("inf"))


@dataclass
class AdaptiveResult:
    """Adaptive build output; duck-types
    :class:`~repro.stochastic.sscm.SSCMResult` (``pce``, ``num_runs``,
    ``wall_time``, ``grid``, ``mean``, ``std``) so the analysis and
    serving layers treat both uniformly, and adds the refinement
    provenance: the accepted index set, the per-acceptance convergence
    trace and the final error estimate.
    """

    pce: PolynomialChaos
    num_runs: int
    wall_time: float
    grid: SparseGrid
    config: AdaptiveConfig
    indices: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    error_estimate: float = 0.0
    termination: str = "tol"
    accepted: list = field(default_factory=list)
    accepted_indicators: list = field(default_factory=list)
    warm: dict = None

    @property
    def mean(self) -> np.ndarray:
        return self.pce.mean

    @property
    def std(self) -> np.ndarray:
        return self.pce.std

    @property
    def output_names(self):
        return self.pce.output_names

    @property
    def converged(self) -> bool:
        """Did the error estimate actually reach the tolerance?"""
        return self.termination in ("tol", "exhausted", "warm")

    def refinement_metadata(self) -> dict:
        """JSON-serializable provenance for the surrogate store.

        Returns
        -------
        dict
            The stopping config (identity form — what the cache key
            hashes), the full and accepted index sets, the
            per-acceptance trace, the error estimate and termination
            reason, the solve count, the combined-quadrature grid size
            with its zero-weight point count (grid-efficiency
            bookkeeping: points that were solved but cancelled out of
            the final rule), and the warm-start provenance
            (``warm_start_source`` is the source build's cache key
            when a warm start actually seeded this build, else
            ``None``).
        """
        weights = np.asarray(self.grid.weights)
        warm = dict(self.warm) if self.warm else None
        return {
            "config": self.config.to_dict(),
            "indices": [list(index) for index in self.indices],
            "accepted": [list(index) for index in self.accepted],
            "accepted_indicators": [
                [list(index), float(indicator)]
                for index, indicator in self.accepted_indicators],
            "trace": list(self.trace),
            "error_estimate": float(self.error_estimate),
            "termination": self.termination,
            "num_solves": int(self.num_runs),
            "grid_points": int(weights.size),
            "zero_weight_points": int(np.count_nonzero(weights == 0.0)),
            "warm_start": warm,
            "warm_start_source": (warm.get("source")
                                  if warm and warm.get("used")
                                  else None),
        }


def combination_projection(grid: IncrementalGrid, values: np.ndarray,
                           indices, basis: HermiteBasis) -> np.ndarray:
    """Aliasing-free chaos coefficients from a partial index set.

    A single global weighted projection over an *incomplete* sparse
    grid aliases internally: basis pairs the combined rule does not
    integrate orthogonally contaminate each other's coefficients (on an
    axes-only grid, ``He_2`` of an unrefined direction absorbs the
    curvature of every refined one).  The cure, after Conrad &
    Marzouk's adaptive pseudospectral construction, is to project *per
    tensor rule* onto only the basis terms that rule resolves without
    aliasing (1-D degree < rule size) and sum with the combination
    coefficients.

    This is *not* the classic Smolyak projection, which integrates
    every basis term under the combined weights.  On the complete
    level-2 simplex the two agree only when every member rule
    integrates each ``f·He_α`` it keeps exactly, as for a quadratic
    QoI (agreement to ~1e-15).  For ``exp(0.3·Σz)`` their std differs
    by 2.6e-6 relative at d=2 and 8.5e-3 at d=7, so an adaptive
    ``tol=0, max_level=2`` build is not a stand-in for a fixed one.

    The same per-tensor caps serve any basis: the paper's fixed order-2
    truncation, or the order-adaptive basis
    (:func:`~repro.adaptive.surplus.adaptive_basis_indices`) whose
    terms are by construction each resolved by at least one member
    rule.

    Returns the ``(basis.size, outputs)`` coefficient matrix.
    """
    design_all = basis.evaluate(grid.points())
    coefficients = np.zeros((basis.size, values.shape[1]))
    for index, coeff in combination_coefficients(indices).items():
        rows, weights = grid.tensor_rows(index)
        caps = tensor_degree_caps(index)
        columns = np.array([
            k for k, alpha in enumerate(basis.indices)
            if all(a <= cap for a, cap in zip(alpha, caps))])
        design = design_all[np.ix_(rows, columns)]
        raw = design.T @ (weights[:, None] * values[rows])
        coefficients[columns] += coeff * (
            raw / basis.norms_squared[columns, None])
    return coefficients


def _warm_seeds(warm_start: WarmStart, dim: int,
                config: AdaptiveConfig, grid: IncrementalGrid):
    """Validate a warm-start seed against this build's configuration.

    Returns ``(seeds, None)`` — the non-root accepted indices, level
    sorted — or ``(None, reason)`` when the seed cannot be applied and
    the build must fall back to a cold start: dimension mismatch, a
    non-downward-closed stored set, or a seed whose (conservatively
    estimated) point cost would blow the solve budget.
    """
    root = (0,) * dim
    seeds = set()
    for index in warm_start.indices:
        index = tuple(int(lv) for lv in index)
        if len(index) != dim or any(lv < 0 for lv in index):
            return None, (f"stored index {index} does not fit "
                          f"dim {dim}")
        if index == root:
            continue
        if config.max_level is not None \
                and sum(index) > config.max_level:
            # The level cap keeps downward closure: dropping every
            # index above a total level never orphans a survivor.
            continue
        seeds.add(index)
    seeds = sorted(seeds, key=lambda ix: (sum(ix), ix))
    if not seeds:
        # Root-only source (it certified at its first frontier), or
        # the level cap filtered everything: nothing to seed, and a
        # "warm" build would cost exactly a cold one — report it as
        # unused rather than attribute nonexistent savings.
        return None, ("source accepted only the root index (or the "
                      "level cap filtered every seed)")
    if not is_downward_closed([root] + seeds):
        return None, "stored accepted set is not downward-closed"
    if config.max_solves is not None:
        planned = grid.num_points
        for index in seeds:
            planned += grid.new_points(index).shape[0]
        # Conservative: per-index costs are counted before any seed is
        # registered, so shared points are double-counted.  A false
        # negative only means a cold start that respects the budget.
        if planned > config.max_solves:
            return None, (f"seed set needs ~{planned} solves, over "
                          f"max_solves={config.max_solves}")
    return seeds, None


def _warm_drift(warm_start: WarmStart, seeds, surpluses,
                scale) -> float:
    """Measured-vs-stored indicator ratio over the seeded indices.

    Sums (rather than averages ratios) so large indicators dominate
    and near-zero stored indicators cannot blow the estimate up.
    Returns ``None`` when no seeded index has a positive stored
    indicator — certification is then impossible.
    """
    stored_sum = 0.0
    measured_sum = 0.0
    for index in seeds:
        stored = warm_start.indicators.get(index)
        if stored is None:
            continue
        stored_sum += stored
        measured_sum += surplus_indicator(surpluses[index], scale)
    if stored_sum <= 0.0:
        return None
    return measured_sum / stored_sum


def run_adaptive_sscm(solve_fn, dim: int, config: AdaptiveConfig = None,
                      output_names=None, order: int = 2,
                      solve_many=None, progress=None,
                      warm_start: WarmStart = None) -> AdaptiveResult:
    """Build the quadratic chaos by dimension-adaptive collocation.

    Parameters
    ----------
    solve_fn:
        Callable ``zeta (dim,) -> QoI vector`` (one coupled solve).
    dim:
        Number of reduced variables.
    config:
        Stopping controls; defaults to :class:`AdaptiveConfig`.
        Pass a parallel ``solve_many`` (e.g. a
        :class:`~repro.analysis.parallel.ParallelWaveEvaluator`) to
        fan waves out; the runner wires one in for ``workers > 1``.
    output_names:
        QoI component labels.
    order:
        Chaos order of the fitted expansion (2, as in the paper).
    solve_many:
        Optional batched evaluator ``(n, dim) points -> (n, outputs)``;
        each refinement wave goes through it in one call.  Defaults to
        a row loop over ``solve_fn``.
    progress:
        Optional callable ``(solves_done, max_solves or -1)`` invoked
        after every evaluated wave.
    warm_start:
        Optional :class:`WarmStart` seeding the index set with a
        previous build's accepted indices.  When the seeded surpluses
        drift little enough that the transferred frontier error stays
        under ``tol``, the build certifies immediately
        (``termination == "warm"``) at strictly fewer solves than any
        cold build that must evaluate its frontier; otherwise the
        frontier is re-opened and refinement continues normally.  An
        inapplicable seed (wrong dimension, budget overflow) degrades
        to a cold start and is recorded as such in the metadata.
    """
    if dim < 1:
        raise StochasticError(f"dim must be >= 1, got {dim}")
    config = config or AdaptiveConfig()
    grid = IncrementalGrid(dim)
    index_set = MultiIndexSet(dim)
    values_rows = []
    trace = []
    start = time.perf_counter()

    def evaluate_wave(points: np.ndarray) -> None:
        if points.shape[0] == 0:
            return
        with span("wave", points=int(points.shape[0])):
            if solve_many is not None:
                block = np.asarray(solve_many(points), dtype=float)
                block = np.atleast_2d(block)
                if block.shape[0] != points.shape[0]:
                    raise StochasticError(
                        f"solve_many returned {block.shape[0]} rows "
                        f"for {points.shape[0]} points")
                values_rows.extend(block)
            else:
                for point in points:
                    values_rows.append(np.atleast_1d(
                        np.asarray(solve_fn(point), dtype=float)))
        if progress is not None:
            progress(len(values_rows), config.max_solves or -1)

    # Root index: the nominal collocation point.
    root = (0,) * dim
    evaluate_wave(grid.register(root))
    values = np.vstack(values_rows)
    pivot = values[0].copy()

    def augmented(block: np.ndarray) -> np.ndarray:
        # Indicators watch [f, (f - f(0))^2]: the mean alone is blind
        # to an index's effect on the variance (for a quadratic QoI
        # every cross index has *zero* mean surplus), while the second
        # moment sees exactly the terms the chaos variance needs.
        # Centering at the nominal value keeps its scale near the
        # *variance*, not mean^2 — essential when std << |mean| (the
        # paper's QoIs), or the tolerance would be met long before the
        # std converged.
        deviation = block - pivot
        return np.hstack([block, deviation * deviation])

    watched = augmented(values)
    estimate = difference_quadrature(grid, watched, root)
    surpluses = {root: estimate}

    def rescale_active() -> None:
        # Re-normalize every active indicator against the *current*
        # integral scale: the variance scale in particular starts near
        # zero and only settles as refinement accumulates, so
        # indicators frozen at activation time would be stale.
        scale = integral_scale(estimate)
        for active_index in index_set.active:
            index_set.active[active_index] = surplus_indicator(
                surpluses[active_index], scale)

    def tol_met() -> bool:
        # At tol 0 the tolerance is never met, not even by an estimate
        # of exactly 0 (a pure interaction the axis surpluses cannot
        # see): only the level cap or the budget ends such a run.
        return config.tol > 0 \
            and index_set.error_estimate() <= config.tol

    def expand_wave(candidates) -> bool:
        # One wave: every admissible candidate under the level cap and
        # the solve budget, evaluated in a single batched call (the
        # parallel seam), its surpluses activated one by one.  Returns
        # whether the budget clipped the wave.
        nonlocal values, watched, estimate
        wave, budget_hit = [], False
        planned = grid.num_points
        for candidate in candidates:
            if config.max_level is not None \
                    and sum(candidate) > config.max_level:
                continue
            cost = grid.new_points(candidate).shape[0]
            if config.max_solves is not None \
                    and planned + cost > config.max_solves:
                budget_hit = True
                continue
            planned += cost
            wave.append(candidate)
        if wave:
            evaluate_wave(np.vstack(
                [grid.register(candidate) for candidate in wave]))
            values = np.vstack(values_rows)
            watched = augmented(values)
        for candidate in wave:
            surplus = difference_quadrature(grid, watched, candidate)
            estimate = estimate + surplus
            surpluses[candidate] = surplus
            index_set.activate(candidate,
                               surplus_indicator(
                                   surplus, integral_scale(estimate)))
        return budget_hit

    termination = None
    warm_error = 0.0
    warm_info = None
    seeds = None
    if warm_start is not None:
        seeds, reason = _warm_seeds(warm_start, dim, config, grid)
        if seeds is None:
            warm_info = {"source": warm_start.source, "used": False,
                         "reason": reason}

    if seeds is not None:
        # Warm start: adopt the source build's accepted set wholesale.
        # All never-seen points of the seeded indices go out in ONE
        # batched wave (the parallel path digests it whole), then the
        # surpluses are re-measured on *this* problem in level order.
        index_set.old.add(root)
        new_blocks = [grid.register(index) for index in seeds]
        new_blocks = [block for block in new_blocks if block.shape[0]]
        if new_blocks:
            evaluate_wave(np.vstack(new_blocks))
            values = np.vstack(values_rows)
            watched = augmented(values)
        for index in seeds:
            surplus = difference_quadrature(grid, watched, index)
            estimate = estimate + surplus
            surpluses[index] = surplus
            index_set.old.add(index)
        drift = _warm_drift(warm_start, seeds, surpluses,
                            integral_scale(estimate))
        certified = (drift is not None and config.tol > 0
                     and np.isfinite(warm_start.frontier_error)
                     and warm_start.frontier_error * drift
                     <= config.tol)
        warm_info = {"source": warm_start.source, "used": True,
                     "seeded_indices": len(seeds) + 1,
                     "drift": None if drift is None else float(drift),
                     "certified": bool(certified)}
        if certified:
            # The source frontier certified its own tolerance and the
            # seeded interior only moved by `drift`: the transferred
            # frontier error still clears tol, so the frontier is not
            # re-evaluated at all — that skipped evaluation is the
            # entire warm-start saving.
            termination = "warm"
            warm_error = warm_start.frontier_error * drift
        else:
            # Drift too large (or unmeasurable): re-open the frontier
            # around the seeded interior and drop back into the
            # standard refinement loop below.
            admissible = sorted(
                {forward for member in index_set.old
                 for forward in index_set.forward_neighbors(member)
                 if index_set.is_admissible(forward)})
            if expand_wave(admissible):
                rescale_active()
                termination = "tol" if tol_met() else "max_solves"
    else:
        index_set.activate(root, surplus_indicator(
            estimate, integral_scale(estimate)))

    step = 0
    while termination is None and index_set.active:
        rescale_active()
        if tol_met() and index_set.old:
            termination = "tol"
            break
        index, indicator = index_set.accept_best()
        step += 1
        budget_hit = expand_wave(index_set.candidates(index))
        trace.append({
            "step": step,
            "index": list(index),
            "indicator": float(indicator),
            "num_solves": int(grid.num_points),
            "active": len(index_set.active),
            "error": float(index_set.error_estimate()),
        })
        if budget_hit:
            # Stop as soon as the budget clips a wave: accepting
            # further indices without expanding their neighborhoods
            # would drain the active set and launder the error away.
            rescale_active()
            termination = "tol" if tol_met() else "max_solves"
            break
    if termination is None:
        # Active set drained: the whole admissible space (under the
        # level cap) has been accepted.
        termination = "exhausted"

    indices = index_set.indices()
    final_grid = grid.combined_quadrature(indices)
    with span("fit", basis=config.basis, tensors=len(indices)):
        if config.basis == "adaptive":
            # Let the accepted index set drive the truncation: every
            # term some member rule resolves without aliasing is
            # retained, so refining a direction past level 2 grows its
            # polynomial order along with its grid.
            basis = HermiteBasis(
                dim, indices=adaptive_basis_indices(indices))
        else:
            basis = HermiteBasis(dim, order=order)
        pce = PolynomialChaos(basis,
                              combination_projection(grid, values,
                                                     indices, basis),
                              output_names=output_names)
    wall = time.perf_counter() - start
    final_error = (warm_error if termination == "warm"
                   else index_set.error_estimate())
    final_scale = integral_scale(estimate)
    accepted = sorted(index_set.old)
    return AdaptiveResult(
        pce=pce, num_runs=int(grid.num_points), wall_time=wall,
        grid=final_grid, config=config, indices=indices, trace=trace,
        error_estimate=float(final_error),
        termination=termination,
        accepted=accepted,
        accepted_indicators=[
            (index, surplus_indicator(surpluses[index], final_scale))
            for index in accepted],
        warm=warm_info)
