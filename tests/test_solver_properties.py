"""Property-based tests (hypothesis) for the linear-solve substrate.

Four invariants that example-based tests only sample:

* ``_max_abs_rows`` — the dense-free CSR per-row max used by the
  equilibration — agrees with the dense definition on *any* sparsity
  pattern, including empty rows and explicit zeros;
* :class:`~repro.solver.SparseFactor` round-trips random SPD and
  indefinite diagonally-dominant systems (real and complex) within a
  tight residual, and a multi-RHS solve equals its stacked
  single-RHS solves bit for bit;
* its symmetric-mode pivoting keeps a small row-scaled residual on
  non-symmetric matrices with an empty diagonal, badly row- and
  column-scaled;
* :func:`~repro.solver.sweep.frequency_sweep` dedups duplicate
  frequencies: any multiset drawn from a palette yields exactly the
  matching rows of the full sweep, bitwise.

All randomness flows through seeds drawn *by hypothesis*, so failures
shrink to a minimal reproducible seed instead of a flaky array.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.solver import SparseFactor
from repro.solver.linear import _max_abs_rows, row_scaling
from repro.solver.sweep import frequency_sweep

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _random_sparse(n, density, seed):
    state = np.random.RandomState(seed % (2**31 - 1))
    return sp.random(n, n, density=density, random_state=state,
                     format="csr")


# ----------------------------------------------------------------------
# Equilibration kernel
# ----------------------------------------------------------------------
class TestMaxAbsRows:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 30), density=st.floats(0.0, 0.9),
           seed=SEEDS)
    def test_matches_dense_definition(self, n, density, seed):
        matrix = _random_sparse(n, density, seed)
        expected = np.abs(matrix.toarray()).max(axis=1)
        assert np.array_equal(_max_abs_rows(matrix), expected)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 20), seed=SEEDS)
    def test_explicit_zeros_are_harmless(self, n, seed):
        # Stored zeros must not change the per-row max: CSR data may
        # legally carry them after arithmetic.
        matrix = _random_sparse(n, 0.4, seed).tolil()
        matrix[0, n - 1] = 0.0
        matrix = sp.csr_matrix(matrix)
        expected = np.abs(matrix.toarray()).max(axis=1)
        assert np.array_equal(_max_abs_rows(matrix), expected)


# ----------------------------------------------------------------------
# SparseFactor round trips
# ----------------------------------------------------------------------
def _dominant_system(n, seed, spd, complex_matrix):
    """Diagonally dominant (hence nonsingular) random system.

    ``spd=True`` builds ``B @ B.T + I`` (symmetric positive
    definite); otherwise the dominant diagonal gets mixed signs — an
    indefinite but still uniquely solvable system, the shape of the
    coupled AC matrix.
    """
    rng = np.random.default_rng(seed)
    if spd:
        b = _random_sparse(n, 0.3, seed)
        matrix = (b @ b.T + sp.eye(n, format="csr")).tocsr()
    else:
        off = _random_sparse(n, 0.3, seed)
        row_sums = np.asarray(abs(off).sum(axis=1)).ravel()
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        matrix = (off + sp.diags(signs * (row_sums + 1.0))).tocsr()
    if complex_matrix:
        matrix = (matrix
                  + 1j * sp.diags(0.2 * rng.standard_normal(n))).tocsr()
    rhs = rng.standard_normal(n)
    if complex_matrix:
        rhs = rhs + 1j * rng.standard_normal(n)
    return matrix, rhs


class TestSparseFactorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25), seed=SEEDS, spd=st.booleans(),
           complex_matrix=st.booleans())
    def test_residual_is_tight(self, n, seed, spd, complex_matrix):
        matrix, rhs = _dominant_system(n, seed, spd, complex_matrix)
        x = SparseFactor(matrix).solve(rhs)
        residual = np.linalg.norm(matrix @ x - rhs)
        assert residual <= 1.0e-10 * max(np.linalg.norm(rhs), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 20), k=st.integers(1, 4), seed=SEEDS,
           spd=st.booleans())
    def test_multi_rhs_equals_stacked_singles(self, n, k, seed, spd):
        matrix, _ = _dominant_system(n, seed, spd, complex_matrix=True)
        rng = np.random.default_rng(seed + 1)
        block = (rng.standard_normal((n, k))
                 + 1j * rng.standard_normal((n, k)))
        factor = SparseFactor(matrix)
        stacked = factor.solve(block)
        for j in range(k):
            single = factor.solve(np.ascontiguousarray(block[:, j]))
            assert np.array_equal(stacked[:, j], single)


def _zero_diagonal_matrix(n, density, rng, complex_matrix):
    """A random non-symmetric matrix with an empty diagonal.

    Each row holds one entry of magnitude 2-6 on a random permutation
    without fixed points, so every pivot must come off the diagonal,
    plus random entries of magnitude 0.5-1.5 and random sign (or
    phase) elsewhere.
    """
    perm = rng.permutation(n)
    while np.any(perm == np.arange(n)):
        perm = rng.permutation(n)
    extra = rng.random((n, n)) < density
    np.fill_diagonal(extra, False)
    rows, cols = np.nonzero(extra)
    size = n + rows.size
    values = rng.uniform(0.5, 1.5, size) * rng.choice([-1.0, 1.0], size)
    values[:n] *= 4.0
    if complex_matrix:
        values = values * np.exp(2j * np.pi * rng.random(size))
    return sp.csr_matrix(
        (values, (np.concatenate([np.arange(n), rows]),
                  np.concatenate([perm, cols]))), shape=(n, n))


class TestPivoting:
    """The LU's symmetric mode prefers diagonal pivots under a 0.1
    threshold; a zero diagonal and wild scaling must not cost it its
    accuracy."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 40), density=st.floats(0.0, 0.3),
           seed=SEEDS, complex_matrix=st.booleans())
    def test_zero_diagonal_badly_scaled_residual(self, n, density, seed,
                                                 complex_matrix):
        rng = np.random.default_rng(seed)
        matrix = _zero_diagonal_matrix(n, density, rng, complex_matrix)
        assume(np.linalg.cond(matrix.toarray()) <= 1.0e6)
        # Rows over 24 orders of magnitude, columns over 6: the spread
        # max-scaling must undo before SuperLU pivots.
        matrix = (sp.diags(10.0 ** rng.uniform(-12.0, 12.0, n)) @ matrix
                  @ sp.diags(10.0 ** rng.uniform(-3.0, 3.0, n))).tocsr()
        rhs = rng.standard_normal(n)
        if complex_matrix:
            rhs = rhs + 1j * rng.standard_normal(n)
        x = SparseFactor(matrix).solve(rhs)
        rows = row_scaling(matrix)
        assert (np.linalg.norm(rows * (rhs - matrix @ x))
                <= 1.0e-10 * np.linalg.norm(rows * rhs))


# ----------------------------------------------------------------------
# frequency_sweep duplicate dedup
# ----------------------------------------------------------------------
PALETTE = (0.5e9, 1.0e9, 2.0e9)


@pytest.fixture(scope="module")
def full_sweep(coarse_plug_structure):
    """The whole palette solved once; the property compares against
    its rows instead of re-solving per example."""
    return frequency_sweep(coarse_plug_structure, PALETTE,
                           backend="lu")


class TestSweepDedup:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(picks=st.lists(st.integers(0, len(PALETTE) - 1),
                          min_size=1, max_size=6))
    def test_duplicates_solve_once_and_match_full_rows(
            self, picks, coarse_plug_structure, full_sweep):
        requested = [PALETTE[i] for i in picks]
        # Pinned to the reference backend: bitwise row equality across
        # differently composed sweeps is a property of the direct
        # path.  A stateful backend (krylov) legitimately solves a
        # frequency differently depending on what preceded it.
        result = frequency_sweep(coarse_plug_structure, requested,
                                 backend="lu")
        unique = np.unique(np.asarray(requested))
        assert np.array_equal(result.frequencies, unique)
        for row, frequency in enumerate(unique):
            full_row = int(np.searchsorted(full_sweep.frequencies,
                                           frequency))
            assert np.array_equal(result.admittance[row],
                                  full_sweep.admittance[full_row])
