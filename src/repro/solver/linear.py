"""Sparse linear solves with equilibration and factorization reuse.

The coupled system mixes metal conductances (~1e8 S/m), dielectric
admittances (~1e-2 S/m at 1 GHz) and carrier-flux coefficients scaled by
densities of 1e21 m^-3, so the raw matrix spans ~30 orders of magnitude.
Row/column max-scaling (:func:`max_scaled`) before the LU keeps
SuperLU's pivoting healthy; the scaling is undone on the solution so
callers never see it.

Every LU of the program is one ``splu`` call with one fixed setting:
SuperLU's symmetric mode, a minimum-degree ordering on the pattern of
``A^T + A`` (:data:`PERMC_SPEC`) and a diagonal pivot threshold of
:data:`DIAG_PIVOT_THRESH`.  The scaled coupled and DC matrices are
nearly symmetric in pattern with strong diagonals, so the ordering
keeps far less fill than the default COLAMD, and every later
back-substitution walks a smaller factor (``docs/SOLVER.md``,
"Ordering").

Two entry points:

* :class:`SparseFactor` — factorize once, solve many right-hand sides
  (``(n,)`` or ``(n, k)`` multi-RHS).  This is the reuse substrate for
  multi-port / multi-excitation solves where the matrix is fixed and
  only the Dirichlet data changes.
* :func:`solve_sparse` — the one-shot convenience wrapper (factorize,
  solve, discard), kept for callers with a single right-hand side.

The symbolic half of assembly lives here too: a
:class:`SparsityPattern` turns COO *values* into the restricted CSR
blocks a solve needs, bitwise what scipy's own COO→CSR conversion and
fancy indexing give, so every sample of a fixed mesh topology shares
one pattern (:func:`pattern_blocks`) and builds no sparse structure of
its own.
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
_PATTERNS = counter(
    "repro_solver_sparsity_patterns_total",
    "Symbolic sparsity patterns built (SparsityPattern constructions), "
    "labeled by system: ac or dc")

#: SuperLU's column ordering: minimum degree on the pattern of A^T + A.
PERMC_SPEC = "MMD_AT_PLUS_A"
#: A diagonal entry is kept as the pivot while it is at least this
#: fraction of its column's largest candidate.
DIAG_PIVOT_THRESH = 0.1
#: SuperLU's symmetric mode: pivot on the diagonal where the threshold
#: allows, so the symmetric ordering survives the factorization.
SYMMETRIC_MODE = True


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
    SuperLU decomposition in symmetric mode, ordered by
    :data:`PERMC_SPEC` with pivot threshold :data:`DIAG_PIVOT_THRESH`)
    and answers any number of :meth:`solve` calls against the same
    matrix — the expensive part of a multi-port or multi-excitation
    study is thereby paid once per matrix instead of once per
    right-hand side.  Each back-substitution walks the whole factor,
    so its cost scales with :attr:`fill`.

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

        with span("factorize", n=n) as node:
            scaled, self._row_scale, self._col_scale = max_scaled(matrix)
            try:
                self._lu = spla.splu(
                    scaled.tocsc(), permc_spec=PERMC_SPEC,
                    diag_pivot_thresh=DIAG_PIVOT_THRESH,
                    options={"SymmetricMode": SYMMETRIC_MODE})
            except RuntimeError as exc:
                raise SingularSystemError(
                    f"sparse LU failed: {exc}") from exc
            node.attrs["fill"] = self.fill
        _FACTORIZATIONS.inc()

    @property
    def fill(self) -> int:
        """Entries of the L and U factors as SuperLU stores them
        (0 for an empty system).

        SuperLU's own count, its supernodal storage with the explicit
        zeros a back-substitution also walks.  It is read without
        converting the factor: scipy's ``L`` and ``U`` attributes
        build CSC copies of both factors and keep them on the factor
        for its life.
        """
        return 0 if self._lu is None else int(self._lu.nnz)

    @property
    def nbytes(self) -> int:
        """Bytes of the factor's values (:attr:`fill` entries of its
        dtype) and of its row and column scalings: a lower bound on
        what it holds, SuperLU's index arrays not counted."""
        if self._lu is None:
            return 0
        return (self.fill * np.dtype(self.dtype).itemsize
                + self._row_scale.nbytes + self._col_scale.nbytes)

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


def _index_dtype(limit: int):
    """The CSR index dtype scipy picks for indices up to ``limit``."""
    return np.int32 if limit <= np.iinfo(np.int32).max else np.int64


class PatternBlock:
    """One restriction ``A[row_ids][:, col_ids]`` of a
    :class:`SparsityPattern`.

    ``take`` picks each block entry out of the pattern's CSR ``data``;
    ``indices``, ``indptr`` and ``shape`` are the block's CSR
    structure, shared (not copied) by every matrix :meth:`matrix`
    builds.
    """

    def __init__(self, take, indices, indptr, shape):
        self.take = take
        self.indices = indices
        self.indptr = indptr
        self.shape = shape

    @property
    def nbytes(self) -> int:
        """Bytes of the block's index arrays."""
        return self.take.nbytes + self.indices.nbytes + self.indptr.nbytes

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The block of the matrix whose pattern ``data`` this is."""
        return sp.csr_matrix((data[self.take], self.indices, self.indptr),
                             shape=self.shape)


class SparsityPattern:
    """The symbolic half of a COO→CSR conversion, done once.

    Built from the COO ``rows`` and ``cols`` of a matrix (duplicates
    allowed), it turns any values on those entries into the CSR
    ``data`` of ``sp.csr_matrix((vals, (rows, cols)), shape)`` — bit
    for bit, explicit zeros kept — and restricts that matrix to row
    and column subsets (:meth:`block`).  Every sample of a fixed mesh
    topology has the same COO structure, so one pattern serves them
    all and a sample computes only its values.

    The sums are bitwise because the pattern replays scipy's order.
    scipy sorts the entries by row with a stable counting sort, then
    (unless the columns already come sorted) sorts each row by column
    with ``csr_sort_indices``, an unstable sort whose permutation
    depends only on the column keys, and sums each run of duplicates
    left to right.  The pattern runs that same column sort once, on a
    matrix whose data are the entry ids, and adds the runs one
    vectorized layer per duplicate rank.  A lexsort order, or
    ``np.add.reduceat``'s pairwise sums, would move last bits.
    """

    def __init__(self, rows, cols, shape):
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        self.shape = (int(shape[0]), int(shape[1]))
        n_rows = self.shape[0]
        index = _index_dtype(max(rows.size, *self.shape))
        # Kept for matches() only.
        self._rows = rows.astype(index)
        self._cols = cols.astype(index)

        # scipy's row pass: a stable counting sort ...
        by_row = np.argsort(rows, kind="stable")
        indptr = np.zeros(n_rows + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        # ... then its column sort, read back from a matrix of entry ids.
        ids = sp.csr_matrix((by_row, cols[by_row].astype(index), indptr),
                            shape=self.shape)
        ids.sort_indices()
        order = ids.data
        sorted_rows = np.repeat(np.arange(n_rows), np.diff(indptr))
        sorted_cols = cols[order]
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = ((sorted_cols[1:] != sorted_cols[:-1])
                      | (sorted_rows[1:] != sorted_rows[:-1]))
        first = np.flatnonzero(starts)
        #: Stored entries (slots) of the converted matrix.
        self.nnz = int(first.size)
        # Slots ordered by run length, longest first, make every layer
        # a prefix: layer k adds the k-th duplicate of each slot whose
        # run is longer than k, so each run sums left to right.
        runs = np.diff(np.append(first, order.size))
        by_run = np.argsort(-runs, kind="stable")
        self._first = order[first[by_run]]
        self._layers = [order[first[by_run[:np.count_nonzero(runs > k)]]
                              + k]
                        for k in range(1, int(runs.max(initial=1)))]
        self._unpermute = np.empty(self.nnz, dtype=np.intp)
        self._unpermute[by_run] = np.arange(self.nnz)
        # CSR structure of the converted matrix, for block().
        self._indices = sorted_cols[first].astype(index)
        self._indptr = np.zeros(n_rows + 1, dtype=index)
        np.cumsum(np.bincount(sorted_rows[first], minlength=n_rows),
                  out=self._indptr[1:])

    @property
    def nbytes(self) -> int:
        """Bytes of the pattern's index arrays."""
        return sum(array.nbytes for array in (
            self._rows, self._cols, self._first, self._unpermute,
            self._indices, self._indptr, *self._layers))

    def matches(self, rows, cols) -> bool:
        """Is ``rows, cols`` exactly the COO structure of this pattern?"""
        return (np.array_equal(rows, self._rows)
                and np.array_equal(cols, self._cols))

    def data(self, vals) -> np.ndarray:
        """The CSR ``data`` of ``sp.csr_matrix((vals, (rows, cols)),
        shape)``, bit for bit."""
        vals = np.asarray(vals)
        out = vals[self._first]
        for entries in self._layers:
            out[:entries.size] += vals[entries]
        return out[self._unpermute]

    def block(self, row_ids, col_ids) -> PatternBlock:
        """The restriction ``matrix[row_ids][:, col_ids]``: scipy's own
        fancy indexing, run once on a matrix whose data are the slot
        ids.  Indexing only selects entries, so the block of any
        ``data`` is exact."""
        slots = sp.csr_matrix(
            (np.arange(self.nnz), self._indices, self._indptr),
            shape=self.shape)[row_ids][:, col_ids]
        return PatternBlock(slots.data, slots.indices, slots.indptr,
                            slots.shape)


def pattern_blocks(patterns: dict, key, rows, cols, shape, unknown,
                   pinned, system: str, pattern=None) -> tuple:
    """``(pattern, block, coupling)`` of one COO structure restricted
    to the ``unknown`` rows: ``block`` keeps the ``unknown`` columns,
    ``coupling`` the ``pinned`` ones.

    ``patterns`` maps a pinned-set ``key`` to such triples; the
    systems of one structure's samples share it, so the first of them
    builds the pattern and the others only scatter their values.  The
    entry under ``key`` serves only when its pattern has exactly these
    ``rows`` and ``cols`` (the guard).  Otherwise the triple is built
    from ``pattern`` (one the caller already knows matches) or a new
    pattern, and entered under ``key`` only when the key is free: a
    mismatched shared entry stays.  ``system`` (``"ac"`` or ``"dc"``)
    labels the ``repro_solver_sparsity_patterns_total`` count of new
    patterns.
    """
    entry = patterns.get(key)
    if entry is not None and (entry[0] is pattern
                              or entry[0].matches(rows, cols)):
        return entry
    if pattern is None:
        pattern = SparsityPattern(rows, cols, shape)
        _PATTERNS.inc(system=system)
    entry = (pattern, pattern.block(unknown, unknown),
             pattern.block(unknown, pinned))
    if key not in patterns:
        patterns[key] = entry
    return entry
