"""Tests for the order-adaptive chaos basis and its plumbing.

The accepted multi-index set now drives the polynomial basis
(Conrad-Marzouk per-tensor truncation): higher-order 1-D Hermite
machinery, explicit-index :class:`HermiteBasis`, the
``AdaptiveConfig(basis="adaptive")`` fit, spec cache-key invariance
(old keys survive byte-for-byte), store round-trips of order-3+
surrogates, and the parallel fixed-grid build that rides the same
wave evaluator.
"""

import math

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveConfig,
    adaptive_basis_indices,
    run_adaptive_sscm,
    tensor_degree_caps,
)
from repro.errors import ServingError, StochasticError
from repro.stochastic import (
    HermiteBasis,
    PolynomialChaos,
    gauss_hermite_rule,
    hermite_triple_product,
    hermite_value,
    hermite_values_upto,
)


class TestHigherOrderHermite:
    """Satellite: 1-D pieces the order-adaptive basis builds on."""

    def test_orthonormality_to_order_six(self):
        """<He_i He_j> = delta_ij i! for all i, j <= 6, by a rule
        exact to degree 13."""
        nodes, weights = gauss_hermite_rule(7)
        values = hermite_values_upto(6, nodes)
        gram = (values * weights) @ values.T
        expected = np.diag([math.factorial(k) for k in range(7)])
        np.testing.assert_allclose(gram, expected, atol=1e-8)

    def test_recurrence_matches_closed_forms(self):
        x = np.linspace(-3.0, 3.0, 11)
        closed = {
            3: x ** 3 - 3 * x,
            4: x ** 4 - 6 * x ** 2 + 3,
            5: x ** 5 - 10 * x ** 3 + 15 * x,
            6: x ** 6 - 15 * x ** 4 + 45 * x ** 2 - 15,
        }
        for order, expected in closed.items():
            np.testing.assert_allclose(hermite_value(order, x),
                                       expected, atol=1e-10)

    def test_values_upto_is_consistent(self):
        x = np.linspace(-2.0, 2.0, 5)
        stacked = hermite_values_upto(6, x)
        for order in range(7):
            np.testing.assert_array_equal(stacked[order],
                                          hermite_value(order, x))

    def test_values_upto_rejects_negative(self):
        with pytest.raises(StochasticError):
            hermite_values_upto(-1, 0.0)

    def test_triple_products_match_quadrature(self):
        """<He_i He_j He_k> to order 4 against an exact rule
        (max degree 12 -> 7 points suffice)."""
        nodes, weights = gauss_hermite_rule(7)
        values = hermite_values_upto(4, nodes)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    numeric = float(
                        (weights * values[i] * values[j]
                         * values[k]).sum())
                    assert hermite_triple_product(i, j, k) \
                        == pytest.approx(numeric, abs=1e-8)

    def test_triple_product_selection_rules(self):
        assert hermite_triple_product(1, 1, 1) == 0.0  # odd total
        assert hermite_triple_product(1, 1, 4) == 0.0  # triangle
        assert hermite_triple_product(0, 3, 3) == 6.0  # <He_3^2>
        with pytest.raises(StochasticError):
            hermite_triple_product(-1, 0, 0)


class TestExplicitBasis:
    def test_normalized_sorted_with_constant_first(self):
        basis = HermiteBasis(2, indices=[(2, 2), (1, 0), (0, 0),
                                         (3, 0), (1, 0)])
        assert basis.indices == [(0, 0), (1, 0), (3, 0), (2, 2)]
        assert basis.truncation == "explicit"
        assert basis.order == 4
        assert basis.size == 4
        np.testing.assert_array_equal(basis.norms_squared,
                                      [1.0, 1.0, 6.0, 4.0])

    def test_constant_index_required(self):
        with pytest.raises(StochasticError):
            HermiteBasis(2, indices=[(1, 0), (0, 1)])

    def test_bad_indices_rejected(self):
        with pytest.raises(StochasticError):
            HermiteBasis(2, indices=[(0, 0), (1,)])
        with pytest.raises(StochasticError):
            HermiteBasis(2, indices=[(0, 0), (-1, 0)])

    def test_describe(self):
        assert HermiteBasis(3).describe() == {
            "kind": "total-degree", "order": 2, "size": 10}
        explicit = HermiteBasis(2, indices=[(0, 0), (4, 0)])
        assert explicit.describe() == {
            "kind": "explicit", "order": 4, "size": 2}

    def test_evaluate_matches_1d_products(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((20, 2))
        basis = HermiteBasis(2, indices=[(0, 0), (3, 0), (2, 2),
                                         (0, 4)])
        design = basis.evaluate(points)
        for col, (i, j) in enumerate(basis.indices):
            expected = hermite_value(i, points[:, 0]) \
                * hermite_value(j, points[:, 1])
            np.testing.assert_allclose(design[:, col], expected,
                                       atol=1e-10)

    def test_total_degree_default_unchanged(self):
        basis = HermiteBasis(3)
        assert basis.truncation == "total"
        assert basis.indices[0] == (0, 0, 0)
        assert basis.size == 10


class TestAdaptiveBasisIndices:
    def test_degree_caps_follow_rule_sizes(self):
        assert tensor_degree_caps((0, 1, 2, 3)) == (0, 2, 4, 8)

    def test_union_of_boxes(self):
        indices = [(0, 0), (1, 0), (0, 1), (2, 0)]
        basis = adaptive_basis_indices(indices)
        # Direction 0 refined to level 2 -> degrees up to 4; direction
        # 1 to level 1 -> up to 2; no accepted pair index -> no cross
        # terms.
        expected = {(0, 0)}
        expected |= {(a, 0) for a in range(1, 5)}
        expected |= {(0, b) for b in (1, 2)}
        assert set(basis) == expected
        assert basis[0] == (0, 0)
        totals = [sum(alpha) for alpha in basis]
        assert totals == sorted(totals)

    def test_pair_index_adds_cross_terms(self):
        basis = adaptive_basis_indices([(0, 0), (1, 0), (0, 1),
                                        (1, 1)])
        assert (1, 1) in basis and (2, 2) in basis
        assert (3, 0) not in basis

    def test_empty_rejected(self):
        with pytest.raises(StochasticError):
            adaptive_basis_indices([])


def _cubic_plus(dim=3):
    """QoI with known Hermite content up to order 3 in direction 0."""
    coeffs = {1: 1.1, 2: 0.45, 3: 0.3}

    def f(z):
        main = 2.0 + sum(c * float(hermite_value(k, z[0]))
                         for k, c in coeffs.items())
        tail = 0.05 * z[1] + 0.02 * (z[2] ** 2 - 1.0)
        return np.array([main + tail])

    variance = sum(c * c * math.factorial(k)
                   for k, c in coeffs.items()) \
        + 0.05 ** 2 + 0.02 ** 2 * 2.0
    return f, 2.0, math.sqrt(variance)


class TestOrderAdaptiveFit:
    def test_cubic_qoi_fitted_exactly(self):
        """Satellite: a known cubic QoI is recovered to roundoff once
        the basis follows the accepted index set (the order-2 fit
        cannot represent the He_3 term at all)."""
        f, exact_mean, exact_std = _cubic_plus()
        config = AdaptiveConfig(tol=1e-10, max_level=2,
                                basis="adaptive")
        result = run_adaptive_sscm(f, 3, config)
        assert result.pce.basis.truncation == "explicit"
        assert result.mean[0] == pytest.approx(exact_mean, rel=1e-12)
        assert result.std[0] == pytest.approx(exact_std, rel=1e-10)
        # The quadratic fit of the same run misses the cubic variance.
        order2 = run_adaptive_sscm(
            f, 3, AdaptiveConfig(tol=1e-10, max_level=2))
        assert order2.std[0] < 0.95 * exact_std

    def test_refinement_path_is_basis_independent(self):
        """The basis changes the fit, never the grid: identical
        accepted sets, solve counts and termination either way."""
        f, _, _ = _cubic_plus()
        kwargs = {"tol": 1e-8, "max_level": 3}
        order2 = run_adaptive_sscm(f, 3, AdaptiveConfig(**kwargs))
        adaptive = run_adaptive_sscm(
            f, 3, AdaptiveConfig(basis="adaptive", **kwargs))
        assert adaptive.num_runs == order2.num_runs
        assert adaptive.indices == order2.indices
        assert adaptive.termination == order2.termination
        # And the shared (order <= 2) coefficients agree exactly.
        lookup = {alpha: row for alpha, row in
                  zip(adaptive.pce.basis.indices,
                      adaptive.pce.coefficients)}
        for alpha, row in zip(order2.pce.basis.indices,
                              order2.pce.coefficients):
            np.testing.assert_allclose(lookup[alpha], row,
                                       atol=1e-12)

    def test_order2_results_bitwise_unchanged(self):
        """The default basis mode reproduces the pre-existing fit
        bit for bit (same code path, pinned by assertion)."""
        f, _ = _synthetic_quadratic()
        old = run_adaptive_sscm(f, 4, AdaptiveConfig(tol=1e-6,
                                                     max_level=2))
        new = run_adaptive_sscm(
            f, 4, AdaptiveConfig(tol=1e-6, max_level=2,
                                 basis="order2"))
        np.testing.assert_array_equal(old.pce.coefficients,
                                      new.pce.coefficients)
        assert old.pce.basis.describe() == new.pce.basis.describe()

    def test_metadata_records_basis(self):
        f, _, _ = _cubic_plus()
        result = run_adaptive_sscm(
            f, 3, AdaptiveConfig(tol=1e-6, max_level=2,
                                 basis="adaptive"))
        assert result.refinement_metadata()["config"]["basis"] \
            == "adaptive"
        default = run_adaptive_sscm(
            f, 3, AdaptiveConfig(tol=1e-6, max_level=2))
        assert "basis" not in default.refinement_metadata()["config"]


def _synthetic_quadratic(dim=4):
    A = np.zeros((dim, dim))
    A[0, 0], A[1, 1], A[0, 1], A[1, 0] = 1.2, 0.7, 0.3, 0.3
    b = np.zeros(dim)
    b[0] = 1.0

    def f(z):
        return np.array([1.0 + b @ z + z @ A @ z])

    return f, math.sqrt(float(b @ b + 2.0 * np.sum(A * A)))


class TestAdaptiveConfigBasis:
    def test_validated(self):
        with pytest.raises(StochasticError):
            AdaptiveConfig(basis="cubic")
        assert AdaptiveConfig().basis == "order2"
        assert AdaptiveConfig(basis="adaptive").basis == "adaptive"

    def test_to_dict_omits_default(self):
        """Old adaptive cache keys must survive byte-for-byte, so the
        default basis never appears on the wire."""
        assert "basis" not in AdaptiveConfig().to_dict()
        assert AdaptiveConfig(basis="adaptive").to_dict()["basis"] \
            == "adaptive"

    def test_from_dict_round_trip(self):
        config = AdaptiveConfig(tol=1e-3, basis="adaptive")
        assert AdaptiveConfig.from_dict(config.to_dict()) == config
        assert AdaptiveConfig.from_dict({"basis": None}).basis \
            == "order2"
        with pytest.raises(StochasticError):
            AdaptiveConfig.from_dict({"basis": "order3"})


def _spec(adaptive=None, **reduction):
    from repro.experiments import table2_spec
    return table2_spec(reduction=reduction or None, adaptive=adaptive,
                       max_step_um=2.5, margin_um=2.5, rdf_nodes=8)


class TestSpecKeys:
    def test_default_basis_keeps_old_adaptive_keys(self):
        plain = _spec(adaptive={"tol": 1e-3})
        explicit = _spec(adaptive={"tol": 1e-3, "basis": "order2"})
        assert plain.canonical() == explicit.canonical()
        assert plain.cache_key() == explicit.cache_key()
        assert "basis" not in \
            plain.canonical()["reduction"]["adaptive"]

    def test_adaptive_basis_splits_the_key(self):
        plain = _spec(adaptive={"tol": 1e-3})
        grown = _spec(adaptive={"tol": 1e-3, "basis": "adaptive"})
        assert grown.cache_key() != plain.cache_key()
        assert grown.canonical()["reduction"]["adaptive"]["basis"] \
            == "adaptive"

    def test_reduction_workers_validated(self):
        """The worker count is a build argument: a spec naming it, with
        any value, is rejected as an unknown setting."""
        for value in (4, None, 0, -2, True, 1.5):
            with pytest.raises(ServingError, match="workers"):
                _spec(workers=value)
        assert "workers" not in _spec().analysis_kwargs()

    def test_reduction_solver_rejected(self):
        """No spec picks the linear solver: a spec naming ``solver``,
        with any value, is rejected as an unknown setting."""
        for value in (None, {"backend": "lu"}, {"backend": "krylov"}):
            with pytest.raises(ServingError, match="solver"):
                _spec(solver=value)

    def test_fixed_grid_canonical_form_still_unchanged(self):
        """No execution knob leaks into pre-existing keys."""
        reduction = _spec().canonical()["reduction"]
        assert set(reduction) == {"method", "energy", "caps", "level",
                                  "fit"}


class TestStoreRoundTrip:
    def _record(self, store_spec):
        rng = np.random.default_rng(3)
        basis = HermiteBasis(
            2, indices=adaptive_basis_indices(
                [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]))
        assert basis.order >= 3  # genuinely order-3+
        pce = PolynomialChaos(basis,
                              rng.standard_normal((basis.size, 2)),
                              output_names=["a", "b"])
        from repro.serving import SurrogateRecord
        return SurrogateRecord(pce=pce, spec=store_spec)

    def test_order3_surrogate_round_trips(self, tmp_path):
        """Satellite: explicit-basis surrogates survive the store —
        indices, coefficients, norms and statistics all intact."""
        from repro.serving import SurrogateStore
        spec = _spec(adaptive={"tol": 1e-3, "basis": "adaptive"})
        record = self._record(spec)
        store = SurrogateStore(tmp_path / "store")
        key = store.save(record)
        loaded = store.load(key)
        assert loaded.pce.basis.truncation == "explicit"
        assert loaded.pce.basis.indices == record.pce.basis.indices
        np.testing.assert_array_equal(loaded.pce.coefficients,
                                      record.pce.coefficients)
        np.testing.assert_array_equal(loaded.pce.basis.norms_squared,
                                      record.pce.basis.norms_squared)
        np.testing.assert_array_equal(loaded.pce.std, record.pce.std)
        sidecar = store.sidecar(key)
        assert sidecar["basis"] == record.pce.basis.describe()
        # Explicit-basis payloads are stamped with their own schema
        # version so pre-basis readers reject them with a clear
        # schema message instead of a coefficient-shape error.
        from repro.serving.store import EXPLICIT_BASIS_SCHEMA_VERSION
        assert sidecar["schema_version"] \
            == EXPLICIT_BASIS_SCHEMA_VERSION

    def test_order2_entries_keep_schema_version_1(self, tmp_path):
        """Order-2 entries stay on the original schema so readers
        from before this feature keep reading everything written for
        them."""
        from repro.serving import SurrogateRecord, SurrogateStore
        from repro.serving.store import SCHEMA_VERSION
        basis = HermiteBasis(2)
        record = SurrogateRecord(
            pce=PolynomialChaos(basis, np.zeros((basis.size, 1))),
            spec=_spec())
        store = SurrogateStore(tmp_path / "store")
        key = store.save(record)
        assert store.sidecar(key)["schema_version"] == SCHEMA_VERSION
        assert store.load(key).pce.basis.truncation == "total"

    def test_order2_payload_layout_unchanged(self):
        """Pre-existing stored surrogates carry no basis_indices array
        — and a payload without one still loads as the order-2 chaos."""
        basis = HermiteBasis(3)
        pce = PolynomialChaos(basis, np.zeros((basis.size, 1)))
        arrays = pce.to_arrays()
        assert set(arrays) == {"dim", "order", "coefficients"}
        loaded = PolynomialChaos.from_arrays(arrays)
        assert loaded.basis.truncation == "total"
        assert loaded.basis.order == 2

    def test_query_engine_handles_order3_layout(self, tmp_path):
        """Mean/std/quantile/corner paths on an explicit order-3+
        coefficient layout."""
        from repro.serving import QueryEngine
        record = self._record(
            _spec(adaptive={"tol": 1e-3, "basis": "adaptive"}))
        engine = QueryEngine(record, num_samples=4000)
        np.testing.assert_array_equal(engine.mean(), record.pce.mean)
        np.testing.assert_array_equal(engine.std(), record.pce.std)
        quantiles = engine.quantiles([0.1, 0.9])
        assert quantiles.shape == (2, 2)
        assert np.all(quantiles[0] <= quantiles[1])
        corner = engine.corner(2.0)
        assert np.all(corner["low"] <= corner["high"])
        answer = engine.answer({"kind": "std"})
        assert answer["values"] == record.pce.std.tolist()
