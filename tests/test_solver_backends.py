"""Backend-conformance harness for the ``SolverBackend`` seam.

One matrix of contracts runs against *every* entry of the backend
table — residual bounds, multi-RHS == stacked single-RHS, complex/real
dtype promotion, the ``n == 0`` early return, the singular-matrix
error shape — so a backend added to the table later is enrolled
automatically at collection time.

Each backend's chord path (:meth:`SolverBackend.chord`, the factor a
perturbed sample's AC solve iterates through) is enrolled in the same
matrix as ``<name>+chord``.

Beyond the shared contracts: the ``"lu"`` backend must stay
bitwise-identical to the pre-seam :func:`repro.solver.solve_sparse`
path, and the ``"krylov"`` backend's seed reuse (a chord through each
key's first LU) and certified fallback are exercised directly.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SingularSystemError, SolverBackendError
from repro.solver import (
    KrylovBackend,
    LUBackend,
    SparseFactor,
    resolve_backend,
    solve_sparse,
)
from repro.solver.backends import (
    _BACKEND_FACTORIZATIONS,
    _BACKENDS,
    _ChordFactor,
)

#: Every entry of the backend table gets the full contract matrix
#: below, with no per-backend test code; ``<name>+chord`` runs it on
#: that backend's chord path.
BACKENDS = sorted(_BACKENDS) + [f"{name}+chord" for name in
                                sorted(_BACKENDS)]


class _ChordPath:
    """A backend's chord path, shaped like a backend: every factor
    iterates through the LU of a nearby matrix."""

    def __init__(self, backend):
        self.backend = backend

    def factorize(self, matrix, key=None):
        rows, cols = matrix.shape
        reference = (SparseFactor(matrix + 1.0e-3 * sp.eye(rows))
                     if rows == cols else None)
        return self.backend.chord(matrix, reference, key=key)


def _backend(name):
    """The backend (or ``<name>+chord`` path) under test."""
    base, _, chord = name.partition("+")
    backend = resolve_backend(base)
    return _ChordPath(backend) if chord else backend


# ----------------------------------------------------------------------
# Test systems
# ----------------------------------------------------------------------
def _system(n=40, complex_matrix=False, seed=3):
    """A diagonally dominant sparse system (uniquely solvable)."""
    state = np.random.RandomState(seed)
    matrix = sp.random(n, n, density=0.15, random_state=state,
                       format="csr")
    row_sums = np.asarray(abs(matrix).sum(axis=1)).ravel()
    matrix = (matrix + sp.diags(row_sums + 1.0)).tocsr()
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(n)
    if complex_matrix:
        matrix = (matrix
                  + 1j * sp.diags(0.1 * rng.standard_normal(n))).tocsr()
        rhs = rhs + 1j * rng.standard_normal(n)
    return matrix, rhs


def _relative_residual(matrix, x, rhs):
    return (np.linalg.norm(matrix @ x - rhs)
            / np.linalg.norm(rhs))


# ----------------------------------------------------------------------
# The shared contract matrix (parametrized over every backend)
# ----------------------------------------------------------------------
class TestConformance:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("complex_matrix", [False, True])
    def test_residual_bound(self, name, complex_matrix):
        matrix, rhs = _system(complex_matrix=complex_matrix)
        backend = _backend(name)
        # Twice under one key: the second call takes a stateful
        # backend's warm (reuse) path; both must stay certified.
        for _ in range(2):
            factor = backend.factorize(matrix, key="contract")
            x = factor.solve(rhs)
            assert _relative_residual(matrix, x, rhs) < 1.0e-9

    @pytest.mark.parametrize("name", BACKENDS)
    def test_multi_rhs_matches_stacked_singles(self, name):
        matrix, rhs = _system(complex_matrix=True)
        rng = np.random.default_rng(11)
        block = np.column_stack([
            rhs, 2.0 * rhs,
            rng.standard_normal(rhs.size) + 1j * rng.standard_normal(
                rhs.size)])
        backend = _backend(name)
        factor = backend.factorize(matrix, key="multirhs")
        factor = backend.factorize(matrix, key="multirhs")
        stacked = factor.solve(block)
        assert stacked.shape == block.shape
        for j in range(block.shape[1]):
            single = factor.solve(np.ascontiguousarray(block[:, j]))
            assert np.array_equal(stacked[:, j], single)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_complex_rhs_on_real_matrix_promotes(self, name):
        matrix, _ = _system(complex_matrix=False)
        rng = np.random.default_rng(5)
        rhs = (rng.standard_normal(matrix.shape[0])
               + 1j * rng.standard_normal(matrix.shape[0]))
        backend = _backend(name)
        factor = backend.factorize(matrix, key="promote")
        factor = backend.factorize(matrix, key="promote")
        x = factor.solve(rhs)
        assert np.iscomplexobj(x)
        assert _relative_residual(matrix, x, rhs) < 1.0e-9

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_system_early_return(self, name):
        empty = sp.csr_matrix((0, 0))
        backend = _backend(name)
        for _ in range(2):  # cold and (where stateful) warm path
            factor = backend.factorize(empty, key="empty")
            assert factor.solve(np.zeros(0)).shape == (0,)
            assert factor.solve(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_singular_matrix_error_shape(self, name):
        matrix, rhs = _system(n=10)
        singular = matrix.tolil()
        singular[4, :] = 0.0  # an unknown with no equation
        backend = _backend(name)
        with pytest.raises(SingularSystemError):
            backend.factorize(singular.tocsr(), key="singular").solve(rhs)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_non_square_rejected(self, name):
        backend = _backend(name)
        with pytest.raises(SingularSystemError):
            backend.factorize(sp.csr_matrix(np.ones((3, 4))))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_rhs_shape_mismatch_rejected(self, name):
        matrix, _ = _system(n=12)
        backend = _backend(name)
        factor = backend.factorize(matrix, key="mismatch")
        factor = backend.factorize(matrix, key="mismatch")
        with pytest.raises(SingularSystemError):
            factor.solve(np.zeros(13))


class TestLUBitwiseIdentity:
    """The reference backend IS the pre-seam path, bit for bit."""

    @pytest.mark.parametrize("complex_matrix", [False, True])
    def test_matches_solve_sparse(self, complex_matrix):
        matrix, rhs = _system(complex_matrix=complex_matrix)
        factor = resolve_backend("lu").factorize(matrix, key="any")
        assert isinstance(factor, SparseFactor)
        assert np.array_equal(factor.solve(rhs),
                              solve_sparse(matrix, rhs))

    def test_multi_rhs_matches_sparse_factor(self):
        matrix, rhs = _system(complex_matrix=True)
        block = np.column_stack([rhs, -rhs])
        factor = resolve_backend("lu").factorize(matrix)
        assert np.array_equal(factor.solve(block),
                              SparseFactor(matrix).solve(block))


# ----------------------------------------------------------------------
# Krylov specifics: the chord through each key's seed, and its fallback
# ----------------------------------------------------------------------
def _krylov_lus():
    return _BACKEND_FACTORIZATIONS.value(backend="krylov")


class TestKrylovBackend:
    def test_warm_call_returns_preconditioned_factor(self):
        matrix, rhs = _system(complex_matrix=True)
        backend = resolve_backend("krylov")
        cold = backend.factorize(matrix, key="sweep")
        assert isinstance(cold, SparseFactor)
        # A nearby matrix (next frequency of a sweep) chords through
        # the seed: no LU of its own, and the answer is certified.
        nearby = (matrix + 1j * 0.01 * sp.eye(matrix.shape[0],
                                              format="csr")).tocsr()
        before = _krylov_lus()
        warm = backend.factorize(nearby, key="sweep")
        assert isinstance(warm, _ChordFactor)
        x = warm.solve(rhs)
        assert _krylov_lus() == before
        assert _relative_residual(nearby, x, rhs) <= 1.0e-12

    def test_different_key_or_shape_goes_cold(self):
        matrix, _ = _system()
        backend = resolve_backend("krylov")
        backend.factorize(matrix, key="a")
        assert isinstance(backend.factorize(matrix, key="b"),
                          SparseFactor)
        smaller, _ = _system(n=12)
        assert isinstance(backend.factorize(smaller, key="a"),
                          SparseFactor)
        assert isinstance(backend.factorize(matrix), SparseFactor)

    def test_fallback_refreshes_seed_and_stays_exact(self):
        matrix, rhs = _system(complex_matrix=True, seed=7)
        backend = resolve_backend("krylov")
        # A seed 100x off: the first chord step lands 99% short and
        # the error then shrinks by only 0.99 per step, so the chord
        # stops contracting and takes exactly one fallback LU.
        backend.factorize((100.0 * matrix).tocsr(), key="k")
        before = _krylov_lus()
        factor = backend.factorize(matrix, key="k")
        assert isinstance(factor, _ChordFactor)
        assert np.array_equal(factor.solve(rhs),
                              SparseFactor(matrix).solve(rhs))
        assert _krylov_lus() == before + 1
        # The fallback LU became the new seed: the next warm solve
        # iterates through an exact factor and makes no LU.
        refreshed = backend.factorize(matrix, key="k")
        assert isinstance(refreshed, _ChordFactor)
        assert refreshed._reference is factor._direct
        assert _relative_residual(matrix, refreshed.solve(rhs),
                                  rhs) <= 1.0e-12
        assert _krylov_lus() == before + 1

    def test_factorization_counter_labels_are_registered_names(self):
        matrix, _ = _system(n=8)
        resolve_backend("lu").factorize(matrix)
        resolve_backend("krylov").factorize(matrix)
        snapshot = _BACKEND_FACTORIZATIONS.snapshot()
        labels = {sample["labels"]["backend"]
                  for sample in snapshot["samples"]}
        assert labels <= set(_BACKENDS)
        assert {"lu", "krylov"} <= labels


class TestResolutionAndRegistry:
    def test_default_is_lu(self):
        assert isinstance(resolve_backend(None), LUBackend)

    def test_environment_is_ignored(self, monkeypatch):
        # No environment variable picks the default backend.
        monkeypatch.setenv("REPRO_SOLVER_BACKEND", "krylov")
        assert isinstance(resolve_backend(None), LUBackend)

    def test_designation_forms(self):
        assert isinstance(resolve_backend("lu"), LUBackend)
        assert isinstance(resolve_backend("krylov"), KrylovBackend)
        live = KrylovBackend()
        assert resolve_backend(live) is live

    def test_bad_designations_rejected(self):
        for designation in ("cholesky", {"backend": "krylov"},
                            {"backend": "lu"}, ("krylov",), 3.14,
                            KrylovBackend):
            with pytest.raises(SolverBackendError):
                resolve_backend(designation)
