"""Damped Newton-Raphson iteration.

The paper solves the discretized nonlinear system with Newton-Raphson
(eq. 8).  In this reproduction the nonlinear solve is the DC operating
point (nonlinear Poisson / drift-diffusion); the AC system is its exact
linearization and needs a single linear solve.  The generic driver here
is shared and unit-tested on scalar and vector problems.

Given a ``reference`` factorization, :func:`damped_newton` runs a *chord*
iteration instead: every step back-substitutes through that one factor
(the DC solve passes the nominal sample's converged Jacobian, see
``docs/SOLVER.md``) under the same damping and line search, and falls
back to full Newton when the chord stops contracting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ConvergenceError
from repro.obs.metrics import counter
from repro.solver.linear import solve_sparse

#: A chord iteration converges at this fraction of
#: ``update_tolerance``: it contracts only linearly, so it must stop
#: well below Newton's rule to land as close to the root.
CHORD_TOLERANCE_FACTOR = 1e-3
#: A chord step whose update exceeds this fraction of the previous
#: one has stopped contracting usefully (checked from the third step).
CHORD_CONTRACTION = 0.5

#: Execution-only observability: DC steps by kind, and chord runs that
#: had to switch to full Newton.
_STEPS = counter(
    "repro_solver_dc_steps_total",
    "Damped-Newton steps taken, labeled by kind: chord (back-"
    "substitution through a reference factor) or newton (fresh LU)")
_CHORD_FALLBACKS = counter(
    "repro_solver_dc_chord_fallbacks_total",
    "Chord solves that stopped contracting or failed a line search "
    "and finished by full Newton")


@dataclass(frozen=True)
class NewtonOptions:
    """Tuning knobs for :func:`damped_newton`.

    Attributes
    ----------
    max_iterations:
        Hard iteration cap before raising :class:`ConvergenceError`.
    update_tolerance:
        Converged when ``max |dx|`` drops below this (same units as x).
    max_step:
        Elementwise cap on the Newton update (potential updates are
        capped at a few thermal voltages — the classic TCAD damping).
        ``None`` disables the cap.
    armijo_shrink:
        Step-halving factor for the residual-decrease line search.
    max_halvings:
        How many times the step may be halved per iteration.

    Raises
    ------
    ConvergenceError
        At construction, for values the iteration cannot run with.
    """

    max_iterations: int = 50
    update_tolerance: float = 1e-10
    max_step: float = None
    armijo_shrink: float = 0.5
    max_halvings: int = 12

    def __post_init__(self) -> None:
        problems = []
        if not self.max_iterations >= 1:
            problems.append(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.update_tolerance > 0.0:
            problems.append(f"update_tolerance must be > 0, got "
                            f"{self.update_tolerance}")
        if self.max_step is not None and not self.max_step > 0.0:
            problems.append(
                f"max_step must be None or > 0, got {self.max_step}")
        if not 0.0 < self.armijo_shrink < 1.0:
            problems.append(f"armijo_shrink must be in (0, 1), got "
                            f"{self.armijo_shrink}")
        if not self.max_halvings >= 0:
            problems.append(
                f"max_halvings must be >= 0, got {self.max_halvings}")
        if problems:
            raise ConvergenceError("invalid NewtonOptions: "
                                   + "; ".join(problems))


def damped_newton(residual_jacobian, x0: np.ndarray,
                  options: NewtonOptions = None,
                  reference=None) -> tuple:
    """Solve ``R(x) = 0`` with damped Newton (or a damped chord).

    Parameters
    ----------
    residual_jacobian:
        Callable ``x -> (R, J)`` with ``R`` an ``(n,)`` array and ``J``
        sparse ``(n, n)``, or a zero-argument callable returning it;
        a callable is invoked only for steps that factorize.
    x0:
        Initial guess (not modified).
    options:
        :class:`NewtonOptions`; defaults are sensible for potentials in
        volts.
    reference:
        Optional factorization (anything with ``solve(rhs)``, e.g. a
        :class:`~repro.solver.linear.SparseFactor`) of a Jacobian near
        the root.  Each step then back-substitutes through it instead
        of factorizing, and the iteration converges once ``max |dx|``
        drops below ``CHORD_TOLERANCE_FACTOR * update_tolerance``.
        From the third chord step on, an update larger than
        ``CHORD_CONTRACTION`` times the previous one — or, at any
        chord step, a failed line search — switches the remaining
        iterations to full Newton from the current iterate.

    Returns
    -------
    (x, iterations):
        The converged solution and the number of steps taken (chord
        and Newton alike).

    Raises
    ------
    ConvergenceError
        When the iteration cap is reached or the line search stalls.
    """
    if options is None:
        options = NewtonOptions()
    x = np.array(x0, dtype=float, copy=True)
    if x.ndim != 1:
        raise ConvergenceError("x0 must be a 1-D array")
    if x.size == 0:
        return x, 0

    chord = reference is not None
    chord_steps = 0
    update = previous_update = np.inf
    residual, jacobian = residual_jacobian(x)
    res_norm = float(np.linalg.norm(residual))
    for iteration in range(1, options.max_iterations + 1):
        if chord:
            dx = reference.solve(-residual)
            chord_steps += 1
        else:
            if callable(jacobian):
                jacobian = jacobian()
            dx = solve_sparse(sp.csr_matrix(jacobian), -residual)
        _STEPS.inc(kind="chord" if chord else "newton")
        if options.max_step is not None:
            peak = float(np.max(np.abs(dx)))
            if peak > options.max_step:
                dx *= options.max_step / peak

        # Line search: accept the first step that reduces the residual
        # norm (or the full step on the final fallback).
        step = 1.0
        accepted = False
        for _ in range(options.max_halvings + 1):
            x_try = x + step * dx
            res_try, jac_try = residual_jacobian(x_try)
            try_norm = float(np.linalg.norm(res_try))
            if try_norm <= res_norm or not np.isfinite(res_norm):
                accepted = True
                break
            step *= options.armijo_shrink
        if not accepted:
            if chord:
                chord = False
                _CHORD_FALLBACKS.inc()
                continue
            raise ConvergenceError(
                "Newton line search failed to reduce the residual",
                iterations=iteration, residual=res_norm)

        x = x_try
        residual, jacobian = res_try, jac_try
        res_norm = try_norm
        update = float(np.max(np.abs(step * dx)))
        tolerance = options.update_tolerance
        if chord:
            tolerance *= CHORD_TOLERANCE_FACTOR
        if update < tolerance:
            return x, iteration
        if (chord and chord_steps >= 3
                and update > CHORD_CONTRACTION * previous_update):
            chord = False
            _CHORD_FALLBACKS.inc()
        previous_update = update

    raise ConvergenceError(
        f"Newton did not converge in {options.max_iterations} iterations "
        f"(last update {update:.3e}, residual {res_norm:.3e})",
        iterations=options.max_iterations, residual=res_norm)
