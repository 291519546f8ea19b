"""Backend-conformance harness for the ``SolverBackend`` seam.

One matrix of contracts runs against *every* entry of the backend
table — residual bounds, multi-RHS == stacked single-RHS, complex/real
dtype promotion, the ``n == 0`` early return, the singular-matrix
error shape — so a backend added to the table later is enrolled
automatically at collection time.

Beyond the shared contracts: the ``"lu"`` backend must stay
bitwise-identical to the pre-seam :func:`repro.solver.solve_sparse`
path, the ``"krylov"`` backend's seed reuse / certified fallback are
exercised directly, and the end-to-end identity rule is checked
through real store builds (explicit ``"lu"`` == omitted byte-for-byte;
``"krylov"`` hashes apart with its tolerance in the sidecar).
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SingularSystemError, SolverBackendError
from repro.experiments import table1_spec
from repro.serving import SurrogateStore, ensure_surrogate
from repro.solver import (
    KrylovBackend,
    LUBackend,
    SolverConfig,
    SparseFactor,
    resolve_backend,
    solve_sparse,
)
from repro.solver.backends import _BACKENDS, _KrylovFactor

#: Every entry of the backend table gets the full contract matrix
#: below, with no per-backend test code.
BACKENDS = sorted(_BACKENDS)


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
        backend = resolve_backend(name)
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
        backend = resolve_backend(name)
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
        backend = resolve_backend(name)
        factor = backend.factorize(matrix, key="promote")
        factor = backend.factorize(matrix, key="promote")
        x = factor.solve(rhs)
        assert np.iscomplexobj(x)
        assert _relative_residual(matrix, x, rhs) < 1.0e-9

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_system_early_return(self, name):
        empty = sp.csr_matrix((0, 0))
        backend = resolve_backend(name)
        for _ in range(2):  # cold and (where stateful) warm path
            factor = backend.factorize(empty, key="empty")
            assert factor.solve(np.zeros(0)).shape == (0,)
            assert factor.solve(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_singular_matrix_error_shape(self, name):
        matrix, rhs = _system(n=10)
        singular = matrix.tolil()
        singular[4, :] = 0.0  # an unknown with no equation
        backend = resolve_backend(name)
        with pytest.raises(SingularSystemError):
            backend.factorize(singular.tocsr(), key="singular").solve(rhs)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_non_square_rejected(self, name):
        backend = resolve_backend(name)
        with pytest.raises(SingularSystemError):
            backend.factorize(sp.csr_matrix(np.ones((3, 4))))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_rhs_shape_mismatch_rejected(self, name):
        matrix, _ = _system(n=12)
        backend = resolve_backend(name)
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
# Krylov specifics: seed reuse, certification, fallback
# ----------------------------------------------------------------------
class TestKrylovBackend:
    def test_warm_call_returns_preconditioned_factor(self):
        matrix, rhs = _system(complex_matrix=True)
        backend = resolve_backend(SolverConfig(backend="krylov",
                                               tol=1.0e-10))
        cold = backend.factorize(matrix, key="sweep")
        assert isinstance(cold, SparseFactor)
        # A nearby matrix (next frequency of a sweep): the seed is a
        # preconditioner now, and the answer is still certified.
        nearby = (matrix + 1j * 0.01 * sp.eye(matrix.shape[0],
                                              format="csr")).tocsr()
        warm = backend.factorize(nearby, key="sweep")
        assert isinstance(warm, _KrylovFactor)
        x = warm.solve(rhs)
        assert _relative_residual(nearby, x, rhs) <= 1.0e-10

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
        backend = resolve_backend(
            SolverConfig(backend="krylov", tol=1.0e-12, maxiter=1))
        backend.factorize(matrix, key="k")
        # A completely different matrix under the same key: one
        # iteration cannot reach 1e-12, so the factor must fall back
        # to a fresh LU — bitwise the direct answer.
        state = np.random.RandomState(17)
        other = sp.random(matrix.shape[0], matrix.shape[0],
                          density=0.2, random_state=state, format="csr")
        sums = np.asarray(abs(other).sum(axis=1)).ravel()
        other = ((other + sp.diags(sums + 1.0))
                 * (1.0 + 0.5j)).tocsr()
        factor = backend.factorize(other, key="k")
        assert isinstance(factor, _KrylovFactor)
        assert np.array_equal(factor.solve(rhs),
                              solve_sparse(other, rhs))
        # The fallback LU became the new seed: the next warm solve
        # starts from an exact preconditioner.
        refreshed = backend.factorize(other, key="k")
        assert isinstance(refreshed, _KrylovFactor)
        assert _relative_residual(other, refreshed.solve(rhs),
                                  rhs) <= 1.0e-12

    def test_factorization_counter_labels_are_registered_names(self):
        from repro.solver.backends import _BACKEND_FACTORIZATIONS
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
        assert isinstance(resolve_backend("krylov"), KrylovBackend)
        assert isinstance(
            resolve_backend(SolverConfig(backend="krylov", tol=1.0e-6)),
            KrylovBackend)
        config = SolverConfig(backend="krylov", maxiter=50)
        assert resolve_backend(config).config is config
        live = KrylovBackend()
        assert resolve_backend(live) is live

    def test_bad_designations_rejected(self):
        with pytest.raises(SolverBackendError):
            resolve_backend("cholesky")
        with pytest.raises(SolverBackendError):
            SolverConfig.from_dict({"backend": "krylov", "typo": 1})
        with pytest.raises(SolverBackendError):
            resolve_backend({"backend": "krylov"})
        with pytest.raises(SolverBackendError):
            resolve_backend(3.14)
        with pytest.raises(SolverBackendError):
            SolverConfig(backend="lu", tol=1.0e-6)
        with pytest.raises(SolverBackendError):
            SolverConfig(backend="krylov", tol=2.0)
        with pytest.raises(SolverBackendError):
            SolverConfig(backend="krylov", method="jacobi")
        with pytest.raises(SolverBackendError):
            SolverConfig(backend="krylov", maxiter=0)


# ----------------------------------------------------------------------
# End-to-end identity through real store builds
# ----------------------------------------------------------------------
TINY_PARAMS = {"max_step_um": 2.0, "rdf_nodes": 6}
TINY_REDUCTION = {"caps": {"doping": 1}, "energy": 0.9}


def _spec(solver=None):
    reduction = dict(TINY_REDUCTION)
    if solver is not None:
        reduction["solver"] = solver
    return table1_spec("doping", reduction=reduction, **TINY_PARAMS)


def _build(tmp_path, name, spec):
    store = SurrogateStore(tmp_path / name)
    report = ensure_surrogate(spec, store)
    key = report.cache_key
    payload = (store.root / f"{key}.npz").read_bytes()
    sidecar = json.loads((store.root / f"{key}.json").read_text())
    return report, payload, sidecar


class TestEndToEndIdentity:
    @pytest.fixture(scope="class")
    def lu_build(self, tmp_path_factory):
        return _build(tmp_path_factory.mktemp("lu"), "omitted", _spec())

    def test_explicit_lu_equals_omitted_byte_for_byte(self, tmp_path,
                                                      lu_build):
        report, payload, sidecar = lu_build
        explicit = _build(tmp_path, "explicit",
                          _spec({"backend": "lu"}))
        assert explicit[0].cache_key == report.cache_key
        assert explicit[1] == payload
        assert explicit[2]["npz_sha256"] == sidecar["npz_sha256"]
        assert explicit[2]["spec"] == sidecar["spec"]
        assert "solver" not in sidecar["spec"]["reduction"]

    def test_krylov_hashes_apart_with_tol_in_provenance(self, tmp_path,
                                                        lu_build):
        report, _, _ = lu_build
        spec = _spec({"backend": "krylov", "tol": 1.0e-9})
        assert spec.cache_key() != report.cache_key
        kr_report, _, kr_sidecar = _build(tmp_path, "krylov", spec)
        solver = kr_sidecar["spec"]["reduction"]["solver"]
        assert solver["backend"] == "krylov"
        assert solver["tol"] == 1.0e-9
        # Same physics, certified tolerance class: the surrogates
        # agree far tighter than the stochastic content they model.
        for name, reference in report.record.pce.to_arrays().items():
            kr_value = kr_report.record.pce.to_arrays()[name]
            if np.issubdtype(np.asarray(reference).dtype, np.number):
                assert np.allclose(kr_value, reference,
                                   rtol=1.0e-6, atol=1.0e-12)
            else:
                assert np.array_equal(kr_value, reference)
