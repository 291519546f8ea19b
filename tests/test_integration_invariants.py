"""Cross-module invariants under random perturbation samples.

The stochastic pipeline solves thousands of perturbed structures; these
tests assert that physical invariants (KCL, passivity, reciprocity,
sign patterns) hold for *random* perturbed samples, not just the
nominal geometry — the property that makes the Monte-Carlo and
collocation statistics meaningful.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import run_mc_analysis
from repro.errors import ReproError
from repro.experiments import (
    Table1Config,
    Table2Config,
    table1_problem,
    table2_problem,
)
from repro.extraction import port_current
from repro.geometry import MetalPlugDesign, TsvDesign
from repro.units import um
from repro.variation.random_field import stable_cholesky


@pytest.fixture(scope="module")
def tiny_problem():
    return table1_problem("both", Table1Config(
        design=MetalPlugDesign(max_step=um(2.0)), rdf_nodes=8))


def _random_sample(problem, rng, scale=1.0):
    xi = {}
    for group in problem.groups:
        chol = stable_cholesky(group.covariance)
        xi[group.name] = scale * (chol @ rng.standard_normal(group.size))
    return xi


class TestPerturbedSampleInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_kcl_on_random_samples(self, tiny_problem, seed):
        rng = np.random.default_rng(seed)
        xi = _random_sample(tiny_problem, rng)
        solution = tiny_problem.solve_sample(xi)
        i1 = port_current(solution, "plug1")
        i2 = port_current(solution, "plug2")
        assert abs(i1 + i2) < 1e-8 * abs(i1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_passivity_on_random_samples(self, tiny_problem, seed):
        """The structure absorbs power: Re(I) into the driven port > 0."""
        rng = np.random.default_rng(seed)
        xi = _random_sample(tiny_problem, rng)
        solution = tiny_problem.solve_sample(xi)
        assert port_current(solution, "plug1").real > 0.0

    @given(seed=st.integers(0, 10_000))
    @example(seed=384)
    @example(seed=972)
    @settings(max_examples=8, deadline=None)
    def test_qoi_continuous_at_nominal(self, tiny_problem, seed):
        """A vanishing perturbation moves the QoI linearly away from its
        nominal value (the smoothness the collocation quadrature relies
        on).  Only the small-scale moves are compared: a full-size draw
        can land near a root of the response, where its move bounds
        nothing (seeds 384 and 972)."""
        rng = np.random.default_rng(seed)
        xi = _random_sample(tiny_problem, rng)

        def qoi(scale):
            return tiny_problem.evaluate_sample(
                {k: scale * v for k, v in xi.items()})[0]

        q_zero, q_tiny, q_double = qoi(0.0), qoi(1e-4), qoi(2e-4)
        move = q_tiny - q_zero
        assert abs(q_double - q_zero - 2.0 * move) \
            <= 1e-2 * abs(move) + 1e-9 * abs(q_zero)

    def test_mc_never_raises_with_csv(self, tiny_problem):
        """Every CSV sample solves (the Fig. 1 robustness property,
        end-to-end through the pipeline)."""
        result = run_mc_analysis(tiny_problem, num_runs=10, seed=0)
        assert np.all(np.isfinite(result.mean))
        assert np.all(result.std >= 0.0)


class TestTsvSampleInvariants:
    @pytest.fixture(scope="class")
    def tsv_problem(self):
        return table2_problem(Table2Config(
            design=TsvDesign(max_step=um(2.5), margin=um(2.5)),
            rdf_nodes=8))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_capacitance_signs_on_random_samples(self, tsv_problem, seed):
        rng = np.random.default_rng(seed)
        xi = _random_sample(tsv_problem, rng)
        values = tsv_problem.evaluate_sample(xi)
        assert values[0] > 0.0
        assert np.all(values[1:] < 0.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_self_cap_bounded_variation(self, tsv_problem, seed):
        """A 1-sigma roughness sample moves C_T1 by far less than 50 %."""
        rng = np.random.default_rng(seed)
        xi = _random_sample(tsv_problem, rng)
        zero = {k: 0.0 * v for k, v in xi.items()}
        c_sample = tsv_problem.evaluate_sample(xi)[0]
        c_nominal = tsv_problem.evaluate_sample(zero)[0]
        assert abs(c_sample - c_nominal) < 0.5 * c_nominal


class TestFailureModes:
    def test_naive_model_large_sigma_raises_repro_error(self):
        """Destroyed-mesh samples fail loudly with a ReproError, never
        silently produce numbers (the 'error of calculation' the paper
        warns about)."""
        problem = table1_problem("geometry", Table1Config(
            design=MetalPlugDesign(max_step=um(2.0)),
            sigma_g=um(3.0), rdf_nodes=8, surface_model="naive"))
        group = problem.geometry_groups[0]
        xi = {g.name: np.zeros(g.size) for g in problem.groups}
        xi[group.name] = np.full(group.size, um(3.0))
        with pytest.raises(ReproError):
            problem.evaluate_sample(xi)

    def test_csv_model_survives_identical_sample(self):
        problem = table1_problem("geometry", Table1Config(
            design=MetalPlugDesign(max_step=um(2.0)),
            sigma_g=um(3.0), rdf_nodes=8, surface_model="csv"))
        group = problem.geometry_groups[0]
        xi = {g.name: np.zeros(g.size) for g in problem.groups}
        xi[group.name] = np.full(group.size, um(3.0))
        value = problem.evaluate_sample(xi)
        assert np.isfinite(value[0])
