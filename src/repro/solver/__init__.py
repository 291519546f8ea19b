"""The coupled A-V solver.

* :mod:`repro.solver.linear` — max-scaled sparse LU.
* :mod:`repro.solver.backends` — the two linear-solver backends
  (the ``"lu"`` reference path and the factor-reuse-preconditioned
  ``"krylov"`` path; see ``docs/SOLVER.md``).
* :mod:`repro.solver.newton` — damped Newton-Raphson (paper eq. 8).
* :mod:`repro.solver.dc` — nonlinear-Poisson equilibrium operating point.
* :mod:`repro.solver.ac` — frequency-domain coupled {V, n, p} system.
* :mod:`repro.solver.ampere` — optional full-wave vector-potential pass.
* :mod:`repro.solver.avsolver` — the user-facing facade.
"""

from repro.solver.linear import SparseFactor, solve_sparse
from repro.solver.backends import (
    KrylovBackend,
    LUBackend,
    SolverBackend,
    SolverConfig,
    resolve_backend,
)
from repro.solver.newton import NewtonOptions, damped_newton
from repro.solver.dc import EquilibriumState, solve_equilibrium
from repro.solver.ac import ACSolution, ACSystem
from repro.solver.avsolver import AVSolver

__all__ = [
    "SparseFactor",
    "solve_sparse",
    "SolverBackend",
    "SolverConfig",
    "LUBackend",
    "KrylovBackend",
    "resolve_backend",
    "NewtonOptions",
    "damped_newton",
    "EquilibriumState",
    "solve_equilibrium",
    "ACSolution",
    "ACSystem",
    "AVSolver",
]
