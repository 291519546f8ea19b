"""Sparse linear solves with equilibration and factorization reuse.

The coupled system mixes metal conductances (~1e8 S/m), dielectric
admittances (~1e-2 S/m at 1 GHz) and carrier-flux coefficients scaled by
densities of 1e21 m^-3, so the raw matrix spans ~30 orders of magnitude.
Row/column max-scaling (:func:`max_scaled`) before the LU keeps
SuperLU's pivoting healthy; the scaling is undone on the solution so
callers never see it.

Two entry points:

* :class:`SparseFactor` — factorize once, solve many right-hand sides
  (``(n,)`` or ``(n, k)`` multi-RHS).  This is the reuse substrate for
  multi-port / multi-excitation solves where the matrix is fixed and
  only the Dirichlet data changes.
* :func:`solve_sparse` — the one-shot convenience wrapper (factorize,
  solve, discard), kept for callers with a single right-hand side.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SingularSystemError
from repro.obs.metrics import counter
from repro.obs.trace import span

#: Execution-only observability: factorizations and triangular solves
#: performed by this process (reuse shows up as solves >> factorizations).
_FACTORIZATIONS = counter(
    "repro_solver_factorizations_total",
    "Sparse LU factorizations performed (SparseFactor constructions)")
_SOLVES = counter(
    "repro_solver_solves_total",
    "Triangular back-substitutions through an existing factorization")


def _max_abs_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """Max |entry| per row of a CSR matrix (dense-free)."""
    absmat = abs(matrix)
    out = np.zeros(matrix.shape[0])
    # CSR: reduce over each row's data slice.
    indptr = absmat.indptr
    data = absmat.data
    for_rows = np.flatnonzero(np.diff(indptr))
    out[for_rows] = np.maximum.reduceat(data, indptr[for_rows])
    return out


def row_scaling(matrix: sp.csr_matrix) -> np.ndarray:
    """``1 / max|entry|`` of every row of a CSR matrix.

    The diagonal of :func:`max_scaled`'s ``R``, and the ``R`` of the
    row-scaled residual certificate the chord factor of
    :mod:`repro.solver.backends` answers to.

    Raises
    ------
    SingularSystemError
        When a row is empty: some unknown has no equation.
    """
    row_max = _max_abs_rows(matrix)
    if np.any(row_max == 0.0):
        empty = int(np.count_nonzero(row_max == 0.0))
        raise SingularSystemError(
            f"{empty} empty matrix rows: some unknowns have "
            f"no equation (check boundary conditions)")
    return 1.0 / row_max


def max_scaled(matrix: sp.csr_matrix):
    """Row/column max-scaling ``R A C`` of a square CSR matrix.

    ``R`` divides each row by its largest |entry|
    (:func:`row_scaling`); ``C`` then divides each column of ``R A``
    by *its* largest (an all-zero column keeps scale 1).  The direct
    LU factors in these coordinates.

    Returns
    -------
    tuple
        ``(scaled, row_scale, col_scale)``: the scaled sparse matrix
        (format left to the caller) and the diagonals of ``R`` and
        ``C``.

    Raises
    ------
    SingularSystemError
        When a row is empty: some unknown has no equation.
    """
    row_scale = row_scaling(matrix)
    scaled = sp.diags(row_scale) @ matrix
    col_max = _max_abs_rows(scaled.T.tocsr())
    col_max[col_max == 0.0] = 1.0
    col_scale = 1.0 / col_max
    return scaled @ sp.diags(col_scale), row_scale, col_scale


class SparseFactor:
    """Reusable max-scaled sparse LU factorization of a square matrix.

    Factorizes once in ``__init__`` (row/column max-scaling plus a
    SuperLU decomposition) and answers any number of :meth:`solve` calls
    against the same matrix — the expensive part of a multi-port or
    multi-excitation study is thereby paid once per matrix instead of
    once per right-hand side.

    Parameters
    ----------
    matrix:
        Square sparse matrix (real or complex).

    Raises
    ------
    SingularSystemError
        When the matrix is non-square, has empty rows, or the
        factorization fails — typically a destroyed mesh sample or a
        missing boundary condition.
    """

    def __init__(self, matrix: sp.spmatrix):
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {matrix.shape}")
        self.shape = matrix.shape
        self.dtype = matrix.dtype
        n = matrix.shape[0]
        if n == 0:
            self._lu = None
            self._row_scale = None
            self._col_scale = None
            return

        with span("factorize", n=n):
            scaled, self._row_scale, self._col_scale = max_scaled(matrix)
            try:
                self._lu = spla.splu(scaled.tocsc())
            except RuntimeError as exc:
                raise SingularSystemError(
                    f"sparse LU failed: {exc}") from exc
        _FACTORIZATIONS.inc()

    # ------------------------------------------------------------------
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against one or many right-hand sides.

        Parameters
        ----------
        rhs:
            Shape ``(n,)`` for a single right-hand side or ``(n, k)``
            for ``k`` of them solved in one multi-RHS pass; the result
            has the same shape.  A complex ``rhs`` against a real
            factorization is handled by solving the real and imaginary
            parts separately (the factorization is not redone).

        Raises
        ------
        SingularSystemError
            On a shape mismatch or a non-finite solution (the
            factorization was numerically singular).
        """
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
            # SuperLU cannot mix a real factorization with a complex
            # RHS; solve the parts separately through the same LU.
            return (self.solve(np.ascontiguousarray(rhs.real))
                    + 1j * self.solve(np.ascontiguousarray(rhs.imag)))

        num_rhs = 1 if rhs.ndim == 1 else int(rhs.shape[1])
        with span("back_substitute", n=n, num_rhs=num_rhs):
            scale = (self._row_scale if rhs.ndim == 1
                     else self._row_scale[:, None])
            y = self._lu.solve(np.asarray(scale * rhs))
            if not np.all(np.isfinite(y)):
                raise SingularSystemError(
                    "solution contains non-finite values")
            _SOLVES.inc()
            scale = (self._col_scale if y.ndim == 1
                     else self._col_scale[:, None])
            return scale * y


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` via max-scaled sparse LU.

    Thin one-shot wrapper over :class:`SparseFactor`; callers that solve
    the same matrix repeatedly should hold a :class:`SparseFactor`
    instead so the factorization is reused.

    Parameters
    ----------
    matrix:
        Square sparse matrix (real or complex).
    rhs:
        Right-hand side, shape ``(n,)`` or ``(n, k)``.

    Raises
    ------
    SingularSystemError
        When the factorization fails or produces non-finite values —
        typically a destroyed mesh sample or missing boundary condition.
    """
    matrix = matrix.tocsr()
    rhs = np.asarray(rhs)
    if np.iscomplexobj(rhs) and not np.iscomplexobj(matrix.data):
        # Factor in complex arithmetic up front: the one-shot path knows
        # its RHS, so this beats two real solves.
        matrix = matrix.astype(complex)
    return SparseFactor(matrix).solve(rhs)
