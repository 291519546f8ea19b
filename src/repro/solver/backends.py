"""Linear-solver backends (the ``SolverBackend`` seam).

A *backend* turns a square sparse matrix into a *factor* — an object
answering ``solve(rhs)`` for ``(n,)`` and ``(n, k)`` right-hand sides.
The AC and Ampere factorizations go through it: the callers
(:class:`~repro.solver.ac.ACSystem`,
:class:`~repro.solver.ampere.AmpereSystem`,
:func:`~repro.solver.sweep.frequency_sweep`) never know which backend
they got.  The DC equilibrium stays outside the seam: its Newton
steps (:func:`~repro.solver.newton.damped_newton`) factorize with
:func:`~repro.solver.linear.solve_sparse`, and an
:class:`~repro.solver.avsolver.AVSolver` factorizes only its nominal
sample that way — every perturbed sample back-substitutes through the
nominal converged factor (a chord iteration; ``docs/SOLVER.md``).

The AC solve of a perturbed sample takes the same shortcut through the
seam: :meth:`SolverBackend.chord` wraps the sample's matrix and the
nominal sample's AC factor in a :class:`_ChordFactor`, which refines
every solve through that one factor to a certified row-scaled residual
and falls back to the backend's own ``factorize`` when the iteration
stops contracting.  Both backends take the chord.

The backend set is the fixed table :data:`_BACKENDS`:

* ``"lu"`` — the reference: :class:`~repro.solver.linear.SparseFactor`
  exactly as before the seam existed.  Bitwise-identical results, by
  construction (the backend returns the ``SparseFactor`` itself).
* ``"krylov"`` — GMRES / BiCGSTAB (scipy) preconditioned by an
  *existing* ``SparseFactor``: the previous frequency of a sweep, the
  previous sample of a stochastic study, or a coarser mesh.  The first
  ``factorize`` under a reuse ``key`` is a plain LU (there is nothing
  to reuse yet); later calls under the same key run the iterative
  solver with that LU as the preconditioner and the LU-applied RHS as
  the initial guess.  Every solution is *certified*: the explicit
  row-scaled residual ``‖R(Ax − b)‖ ≤ tol·‖Rb‖`` is checked (``R``
  normalizes each equation by its largest coefficient — the scaling
  the direct path factors under), and on non-convergence the backend
  falls back to a fresh LU (which also becomes the new seed) — a stale
  seed costs time, never correctness.

A new backend (the ROADMAP's multi-fidelity mesh ladder, say) is one
more table entry; the conformance suite in
``tests/test_solver_backends.py`` runs over every entry.

Identity rule (see ``docs/SOLVER.md``): the default ``"lu"`` backend is
*omitted* from a spec's canonical form, so every pre-seam cache key
survives byte-for-byte; any other backend (or tolerance) hashes apart
and is recorded in the store sidecar.  Serving builds pin an explicit
:class:`SolverConfig`; direct library use picks with ``backend=`` and
defaults to ``"lu"``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from repro.errors import SingularSystemError, SolverBackendError
from repro.obs.metrics import counter
from repro.solver.linear import SparseFactor, max_scaled, row_scaling
from repro.solver.newton import CHORD_CONTRACTION

#: Execution-only observability.  Factorizations are labeled by the
#: backend that performed them — label values are the names in
#: :data:`_BACKENDS`, so the cardinality is bounded by that table.
_BACKEND_FACTORIZATIONS = counter(
    "repro_solver_backend_factorizations_total",
    "Direct LU factorizations performed, labeled by solver backend")
_KRYLOV_SOLVES = counter(
    "repro_solver_krylov_solves_total",
    "Krylov right-hand-side solves by outcome "
    "(converged / fallback / direct)")
_KRYLOV_ITERATIONS = counter(
    "repro_solver_krylov_iterations_total",
    "Inner Krylov iterations across all preconditioned solves")

_AC_CHORD_STEPS = counter(
    "repro_solver_ac_chord_steps_total",
    "AC chord steps: multi-RHS back-substitutions through a nominal "
    "AC factor")
_AC_CHORD_FALLBACKS = counter(
    "repro_solver_ac_chord_fallbacks_total",
    "AC chord solves that stopped contracting and were answered by "
    "the backend's own factorization")

_KRYLOV_METHODS = ("gmres", "bicgstab")

#: A chord solve is certified once every column's row-scaled residual
#: ``‖R(b − A·x)‖`` is at most this fraction of ``‖R·b‖``: the level
#: the direct LU itself reaches on the coupled A-V matrices (4–5e-15),
#: above the chord's own floor (~1.6e-15).
CHORD_TOLERANCE = 1e-14
#: Chord steps before the fallback factorization: about one LU's cost
#: on the fast TSV mesh, where a chord certifies in 11–17 steps.
CHORD_MAX_STEPS = 25


@dataclass(frozen=True)
class SolverConfig:
    """Pure-data backend selection: picklable, JSON-round-trippable.

    This is the form that crosses process boundaries (worker pools
    receive it inside a rebuilt problem) and the form a
    :class:`~repro.serving.spec.ProblemSpec` validates and hashes.

    Parameters
    ----------
    backend:
        Backend name, a key of :data:`_BACKENDS` (``"lu"`` or
        ``"krylov"``).
    tol:
        Krylov: certified row-scaled relative residual
        ``‖R(Ax − b)‖ / ‖Rb‖``.
    maxiter:
        Krylov: inner-iteration budget before the LU fallback.
    method:
        Krylov: ``"gmres"`` (default) or ``"bicgstab"``.
    """

    backend: str = "lu"
    tol: float = 1.0e-10
    maxiter: int = 200
    method: str = "gmres"

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise SolverBackendError(
                f"unknown solver backend {self.backend!r}; "
                f"valid: {sorted(_BACKENDS)}")
        if not isinstance(self.tol, float) or not 0.0 < self.tol < 1.0:
            raise SolverBackendError(
                f"tol must be a float in (0, 1), got {self.tol!r}")
        if not isinstance(self.maxiter, int) \
                or isinstance(self.maxiter, bool) or self.maxiter < 1:
            raise SolverBackendError(
                f"maxiter must be a positive integer, got "
                f"{self.maxiter!r}")
        if self.method not in _KRYLOV_METHODS:
            raise SolverBackendError(
                f"unknown Krylov method {self.method!r}; "
                f"valid: {list(_KRYLOV_METHODS)}")
        if self.backend == "lu":
            # A tolerance or iteration budget has no effect on a direct
            # solve; accepting one would either silently drop it from
            # the cache key or split the key over a no-op — reject, the
            # same way spec validation rejects level/fit on an
            # adaptive build.
            defaults = SolverConfig.__dataclass_fields__
            for name in ("tol", "maxiter", "method"):
                if getattr(self, name) != defaults[name].default:
                    raise SolverBackendError(
                        f"{name}={getattr(self, name)!r} has no effect "
                        f"on the direct 'lu' backend; drop it or pick "
                        f"an iterative backend")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Full resolved form (every field explicit) for hashing."""
        return {"backend": self.backend, "tol": self.tol,
                "maxiter": self.maxiter, "method": self.method}

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """Build from a (possibly sparse) mapping; unknowns rejected."""
        if not isinstance(data, dict):
            raise SolverBackendError(
                f"solver config must be a mapping, got "
                f"{type(data).__name__}")
        unknown = set(data) - {"backend", "tol", "maxiter", "method"}
        if unknown:
            raise SolverBackendError(
                f"unknown solver settings {sorted(unknown)}; valid: "
                f"['backend', 'maxiter', 'method', 'tol']")
        normalized = dict(data)
        if "tol" in normalized \
                and isinstance(normalized["tol"], int) \
                and not isinstance(normalized["tol"], bool):
            normalized["tol"] = float(normalized["tol"])
        return cls(**normalized)


class SolverBackend:
    """Base class of the seam: ``factorize`` a matrix into a factor.

    A *factor* is any object with ``solve(rhs)``, ``shape`` and
    ``dtype`` — the :class:`~repro.solver.linear.SparseFactor`
    interface.  ``key`` is an opaque hashable reuse hint: calls that
    share a key solve *related* matrices (same pinned-contact set
    across frequencies or samples), which is what makes factor reuse
    as a preconditioner possible.  Backends are free to ignore it.
    """

    name = "abstract"

    def __init__(self, config: SolverConfig = None):
        self.config = config if config is not None \
            else SolverConfig(backend=self.name)

    def factorize(self, matrix, key=None):
        """Return a solve-ready factor for a square sparse matrix."""
        raise NotImplementedError

    def chord(self, matrix, reference, key=None):
        """A factor of ``matrix`` that iterates through ``reference``.

        ``reference`` is a factor of a nearby matrix of the same shape
        (an :class:`~repro.solver.avsolver.AVSolver` passes its nominal
        sample's AC factor).  Every solve refines through it
        (:class:`_ChordFactor`) and falls back to
        ``factorize(matrix, key)`` when the refinement stops
        contracting.  Without a reference (``None``) or with one of
        another shape this is ``factorize`` itself.
        """
        matrix = matrix.tocsr()
        if reference is None or reference.shape != matrix.shape:
            return self.factorize(matrix, key=key)
        return _ChordFactor(
            matrix, reference, lambda: self.factorize(matrix, key=key))


class LUBackend(SolverBackend):
    """The reference backend: max-scaled SuperLU, exactly pre-seam.

    ``factorize`` returns the :class:`SparseFactor` itself — no
    wrapper, no extra arithmetic — so results are bitwise-identical to
    the code before the seam existed (the conformance suite asserts
    this against :func:`~repro.solver.linear.solve_sparse`).
    """

    name = "lu"

    def factorize(self, matrix, key=None):
        """Direct LU factorization; the reuse ``key`` is ignored."""
        factor = SparseFactor(matrix)
        _BACKEND_FACTORIZATIONS.inc(backend=self.name)
        return factor


class KrylovBackend(SolverBackend):
    """GMRES/BiCGSTAB preconditioned by a reused ``SparseFactor``.

    Stateful on purpose: the backend instance remembers the last LU it
    built per reuse ``key`` (``_seeds``).  A sweep or stochastic study
    passes *one* instance through every
    :class:`~repro.solver.ac.ACSystem` it creates, so frequency ``k``
    is preconditioned by frequency ``k-1``'s factorization and sample
    ``m`` by sample ``m-1``'s.  Cold calls (no seed, or a seed of the
    wrong size) do a direct LU and record it as the new seed.

    Correctness is certified per right-hand side: the explicit
    row-scaled residual must satisfy ``‖R(Ax − b)‖ ≤ tol·‖Rb‖``
    or the factor falls back to a fresh LU of the *current* matrix,
    which replaces the seed
    (``repro_solver_krylov_solves_total{outcome="fallback"}``
    counts these).  A Krylov build therefore degrades to LU speed,
    never to a wrong answer.
    """

    name = "krylov"

    def __init__(self, config: SolverConfig = None):
        super().__init__(config if config is not None
                         else SolverConfig(backend="krylov"))
        if self.config.backend != self.name:
            raise SolverBackendError(
                f"config names backend {self.config.backend!r}, "
                f"expected {self.name!r}")
        self._seeds = {}

    def factorize(self, matrix, key=None):
        """LU when cold, seed-preconditioned Krylov factor when warm."""
        matrix = matrix.tocsr()
        seed = self._seeds.get(key) if key is not None else None
        if seed is None or seed.shape != matrix.shape:
            factor = SparseFactor(matrix)
            _BACKEND_FACTORIZATIONS.inc(backend=self.name)
            if key is not None:
                self._seeds[key] = factor
            return factor

        def refresh(fresh_factor):
            self._seeds[key] = fresh_factor

        return _KrylovFactor(matrix, seed, self.config, refresh)


class _IterativeFactor:
    """The :class:`~repro.solver.linear.SparseFactor` solve contract
    around an iterative ``_solve(rhs)``.

    ``solve`` takes ``(n,)`` / ``(n, k)`` right-hand sides, splits a
    complex RHS against a real matrix into real/imaginary solves,
    returns early for ``n == 0`` and raises
    :class:`~repro.errors.SingularSystemError` on a shape mismatch;
    ``_solve`` sees only RHS of the matrix's size and kind.
    Subclasses set ``shape`` and ``dtype`` from their matrix.
    """

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Certified iterative solve (a factorization when it fails)."""
        rhs = np.asarray(rhs)
        n = self.shape[0]
        if rhs.shape[0] != n:
            raise SingularSystemError(
                f"rhs length {rhs.shape[0]} does not match matrix "
                f"size {n}")
        if n == 0:
            return np.zeros(rhs.shape,
                            dtype=np.result_type(self.dtype, rhs.dtype))
        if (np.iscomplexobj(rhs)
                and not np.issubdtype(self.dtype, np.complexfloating)):
            # Mirror SparseFactor: a complex RHS against a real matrix
            # is two real solves, keeping dtype promotion identical.
            return (self.solve(np.ascontiguousarray(rhs.real))
                    + 1j * self.solve(np.ascontiguousarray(rhs.imag)))
        return self._solve(rhs)


class _KrylovFactor(_IterativeFactor):
    """Solve-ready Krylov wrapper around one matrix and one LU seed.

    Multi-RHS solves iterate column by column, so a stacked solve
    equals the stacked single solves *exactly*.
    """

    def __init__(self, matrix, seed: SparseFactor,
                 config: SolverConfig, on_refresh):
        self.shape = matrix.shape
        self.dtype = matrix.dtype
        self._matrix = matrix
        self._seed = seed
        self._config = config
        self._on_refresh = on_refresh
        self._direct = None
        self._scaled = None

    # ------------------------------------------------------------------
    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.ndim == 1:
            return self._solve_column(rhs)
        columns = [self._solve_column(np.ascontiguousarray(rhs[:, j]))
                   for j in range(rhs.shape[1])]
        return np.column_stack(columns) if columns else \
            np.zeros(rhs.shape, dtype=np.result_type(self.dtype,
                                                     rhs.dtype))

    # ------------------------------------------------------------------
    def _solve_column(self, b: np.ndarray) -> np.ndarray:
        if self._direct is not None:
            _KRYLOV_SOLVES.inc(outcome="direct")
            return self._direct.solve(b)
        x = self._try_krylov(b)
        if x is not None:
            _KRYLOV_SOLVES.inc(outcome="converged")
            return x
        # Certification failed: factor the current matrix directly and
        # promote it to the new seed so later calls skip the stale one.
        _KRYLOV_SOLVES.inc(outcome="fallback")
        self._direct = SparseFactor(self._matrix)
        _BACKEND_FACTORIZATIONS.inc(backend="krylov")
        self._on_refresh(self._direct)
        return self._direct.solve(b)

    def _scaled_system(self):
        """The matrix in max-scaled coordinates, computed once.

        The coupled A-V matrix mixes entries across ~30 orders of
        magnitude; a Krylov recurrence on the raw matrix breaks down
        in floating point no matter how good the preconditioner is.
        The iteration therefore runs on the same system the direct
        path factors, :func:`~repro.solver.linear.max_scaled`'s
        ``Ã = R A C``.  Returns ``None`` for a structurally singular
        matrix (empty row) — the fallback's ``SparseFactor`` then
        raises the proper error.
        """
        if self._scaled is None:
            try:
                scaled, row_scale, col_scale = max_scaled(self._matrix)
            except SingularSystemError:
                return None
            self._scaled = (scaled.tocsr(), row_scale, col_scale)
        return self._scaled

    def _try_krylov(self, b: np.ndarray):
        """One preconditioned solve; ``None`` unless certified."""
        config = self._config
        system = self._scaled_system()
        if system is None:
            return None
        scaled, row_scale, col_scale = system
        seed = self._seed

        # In scaled coordinates ``Ã = R A C``, the seed approximates
        # ``Ã⁻¹ ≈ C⁻¹ A_seed⁻¹ R⁻¹``; the warm start is the seed's own
        # solution of the *original* system, re-expressed in scaled
        # coordinates.
        def apply_seed(v):
            return seed.solve(v / row_scale) / col_scale

        op_dtype = np.result_type(scaled.dtype, seed.dtype)
        preconditioner = spla.LinearOperator(
            self.shape, matvec=apply_seed, dtype=op_dtype)
        b_scaled = row_scale * b
        x0 = seed.solve(b) / col_scale
        iterations = [0]

        def count(_):
            iterations[0] += 1

        solver = getattr(spla, config.method)
        kwargs = dict(_tolerance_kwargs(solver, config.tol),
                      x0=x0, M=preconditioner, callback=count)
        if config.method == "gmres":
            # Budget = total inner iterations, split into restart
            # cycles; the callback then ticks once per inner step.
            restart = min(30, config.maxiter)
            kwargs["restart"] = restart
            kwargs["maxiter"] = -(-config.maxiter // restart)
            kwargs["callback_type"] = "pr_norm"
        else:
            kwargs["maxiter"] = config.maxiter
        try:
            y, info = solver(scaled, b_scaled, **kwargs)
        except Exception:  # scipy breakdowns -> certified fallback
            return None
        _KRYLOV_ITERATIONS.inc(iterations[0])
        if info != 0:
            return None
        # Certify against a recomputed row-scaled residual, not the
        # solver's own convergence flag.
        x = col_scale * np.asarray(y)
        residual, rhs_norm = _row_scaled_norms(
            row_scale, np.column_stack([self._matrix @ x - b, b]))
        if not np.isfinite(residual) or residual > config.tol * rhs_norm:
            return None
        return x


class _ChordFactor(_IterativeFactor):
    """Solve-ready chord iteration: one matrix, one nearby factor.

    Every solve runs fixed-factor iterative refinement,
    ``x ← x + M⁻¹(b − A·x)`` with ``M⁻¹`` the reference factor's
    ``solve``, until each column is certified by the row-scaled
    residual ``‖R(b − A·x)‖ ≤ CHORD_TOLERANCE·‖R·b‖``, ``R`` the
    matrix's own row max-scaling (the certificate the Krylov factor
    answers to).  An ``(n, k)`` block iterates as one — one multi-RHS
    back-substitution per step — and a certified column leaves the
    block, so a stacked solve equals the stacked single solves
    exactly.

    A non-finite residual, a residual above ``CHORD_CONTRACTION``
    times the previous one (from the third step on), or
    ``CHORD_MAX_STEPS`` steps without certification hand the solve —
    and every later one — to ``fallback()``, the backend's own
    factorization of the matrix.  An empty matrix row raises
    :class:`~repro.errors.SingularSystemError` at construction.
    """

    def __init__(self, matrix, reference, fallback):
        self.shape = matrix.shape
        self.dtype = matrix.dtype
        self._matrix = matrix
        self._reference = reference
        self._fallback = fallback
        self._direct = None
        self._row_scale = row_scaling(matrix) if matrix.shape[0] else None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._direct is None:
            x = self._refine(rhs if rhs.ndim == 2 else rhs[:, None])
            if x is not None:
                return x.reshape(rhs.shape)
            _AC_CHORD_FALLBACKS.inc()
            self._direct = self._fallback()
        return self._direct.solve(rhs)

    def _refine(self, block: np.ndarray):
        """Chord-refined ``(n, k)`` solution; ``None`` unless certified."""
        row_scale = self._row_scale
        bound = CHORD_TOLERANCE * _row_scaled_norms(row_scale, block)
        x = np.zeros(block.shape, dtype=np.result_type(
            self.dtype, self._reference.dtype, block.dtype))
        active = np.arange(block.shape[1])
        residual, previous = block, None
        for step in range(1, CHORD_MAX_STEPS + 1):
            x[:, active] += self._reference.solve(residual)
            _AC_CHORD_STEPS.inc()
            residual = block[:, active] - self._matrix @ x[:, active]
            norms = _row_scaled_norms(row_scale, residual)
            if not np.all(np.isfinite(norms)):
                return None
            open_ = norms > bound[active]
            if not np.any(open_):
                return x
            if step >= 3 and np.any(
                    norms[open_] > CHORD_CONTRACTION * previous[open_]):
                return None
            active = active[open_]
            residual, previous = residual[:, open_], norms[open_]
        return None


def _row_scaled_norms(row_scale: np.ndarray,
                      block: np.ndarray) -> np.ndarray:
    """``‖R·v‖`` of every column ``v`` of an ``(n, k)`` block.

    Both iterative factors certify ``‖R(b − A·x)‖ ≤ tol·‖R·b‖`` in
    this norm: each equation normalized by its largest coefficient,
    the tightest norm the direct path itself satisfies on matrices
    whose raw entries span tens of orders of magnitude.  Each column
    is reduced from its own contiguous copy, so its norm does not
    depend on the block it was solved in.
    """
    scaled = row_scale[:, None] * block
    return np.array([np.linalg.norm(np.ascontiguousarray(scaled[:, j]))
                     for j in range(scaled.shape[1])])


def _tolerance_kwargs(solver, tol: float) -> dict:
    """Relative-tolerance kwargs across the scipy rename (tol->rtol)."""
    if "rtol" in inspect.signature(solver).parameters:
        return {"rtol": tol, "atol": 0.0}
    return {"tol": tol, "atol": 0.0}


#: The backend table: every backend there is, by name.
_BACKENDS = {"lu": LUBackend, "krylov": KrylovBackend}


def resolve_backend(backend=None) -> SolverBackend:
    """Normalize a backend designation to a live instance.

    Accepts ``None`` (``"lu"``), a backend name, a
    :class:`SolverConfig`, or an already-live :class:`SolverBackend`
    (returned unchanged — this is how one stateful instance is shared
    across the systems of a sweep).  A mapping is rejected; turn it
    into a config with :meth:`SolverConfig.from_dict` first.
    """
    if isinstance(backend, SolverBackend):
        return backend
    if backend is None:
        backend = "lu"
    if isinstance(backend, str):
        backend = SolverConfig(backend=backend)
    if not isinstance(backend, SolverConfig):
        raise SolverBackendError(
            f"cannot interpret solver backend designation "
            f"{backend!r} of type {type(backend).__name__}")
    return _BACKENDS[backend.backend](backend)
