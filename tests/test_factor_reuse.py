"""Tests for the factorization-reuse solve layer.

Covers :class:`SparseFactor` multi-RHS solves, the per-contact-set
factor cache and ``solve_ports`` batching of :class:`ACSystem`, the
per-sample equilibrium cache of :class:`AVSolver`, the batched
frequency sweep, the multi-port QoI mode of the stochastic layer, and
the parallel-MC seed-derivation fix.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.solver.avsolver as avsolver_module
from repro.errors import GeometryError, SingularSystemError
from repro.mesh import compute_geometry
from repro.mesh.entities import LinkSet
from repro.solver import AVSolver, SparseFactor, solve_sparse
from repro.solver.ac import ACSystem
from repro.solver.dc import solve_equilibrium
from repro.solver.sweep import frequency_sweep


def _random_complex_system(rng, n=40, k=5):
    matrix = (sp.random(n, n, density=0.25, random_state=7)
              + sp.eye(n) * (3.0 + 0.5j)).tocsr()
    rhs = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return matrix, rhs


class TestSparseFactor:
    def test_multi_rhs_matches_column_solves(self, rng):
        matrix, rhs = _random_complex_system(rng)
        factor = SparseFactor(matrix)
        block = factor.solve(rhs)
        for j in range(rhs.shape[1]):
            np.testing.assert_array_equal(block[:, j],
                                          factor.solve(rhs[:, j]))

    def test_matches_solve_sparse(self, rng):
        matrix, rhs = _random_complex_system(rng)
        np.testing.assert_array_equal(SparseFactor(matrix).solve(rhs),
                                      solve_sparse(matrix, rhs))

    def test_reuse_across_rhs(self, rng):
        matrix, _ = _random_complex_system(rng)
        factor = SparseFactor(matrix)
        for _ in range(3):
            x_true = rng.standard_normal(matrix.shape[0])
            x = factor.solve(matrix @ x_true)
            np.testing.assert_allclose(x, x_true, rtol=1e-8)

    def test_complex_rhs_real_factor(self, rng):
        n = 30
        matrix = (sp.random(n, n, density=0.3, random_state=3)
                  + sp.eye(n) * 2.0).tocsr()
        factor = SparseFactor(matrix)
        x_true = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = factor.solve(matrix @ x_true)
        assert np.iscomplexobj(x)
        np.testing.assert_allclose(x, x_true, rtol=1e-8)

    def test_validation(self):
        with pytest.raises(SingularSystemError):
            SparseFactor(sp.csr_matrix((2, 3)))
        empty_row = sp.csr_matrix((3, 3))
        empty_row[0, 0] = 1.0
        with pytest.raises(SingularSystemError):
            SparseFactor(empty_row.tocsr())
        factor = SparseFactor(sp.eye(3, format="csr"))
        with pytest.raises(SingularSystemError):
            factor.solve(np.ones(4))


class TestEmptySystemDtype:
    """The ``n == 0`` early return promotes to the result dtype."""

    def test_complex_matrix_real_rhs(self):
        x = solve_sparse(sp.csr_matrix((0, 0), dtype=complex),
                         np.zeros(0))
        assert x.dtype == np.complex128

    def test_real_matrix_complex_rhs(self):
        x = solve_sparse(sp.csr_matrix((0, 0)), np.zeros(0, complex))
        assert x.dtype == np.complex128

    def test_real_everywhere_stays_real(self):
        x = solve_sparse(sp.csr_matrix((0, 0)), np.zeros((0, 4)))
        assert x.dtype == np.float64
        assert x.shape == (0, 4)


@pytest.fixture(scope="module")
def plug_system(coarse_plug_structure):
    links = LinkSet(coarse_plug_structure.grid)
    geometry = compute_geometry(coarse_plug_structure.grid, links=links)
    equilibrium = solve_equilibrium(coarse_plug_structure, geometry)
    return coarse_plug_structure, geometry, equilibrium


class TestSolvePorts:
    def test_bitwise_matches_independent_solves(self, plug_system):
        structure, geometry, equilibrium = plug_system
        batched = ACSystem(structure, geometry, equilibrium, 1e9)
        fresh = ACSystem(structure, geometry, equilibrium, 1e9)
        ports = ["plug1", "plug2"]
        solutions = batched.solve_ports(ports)
        for j, driven in enumerate(ports):
            excitation = {name: (1.0 if name == driven else 0.0)
                          for name in ports}
            single = fresh.solve(excitation)
            np.testing.assert_array_equal(solutions[j].potential,
                                          single.potential)
            np.testing.assert_array_equal(solutions[j].n, single.n)
            np.testing.assert_array_equal(solutions[j].p, single.p)
            assert solutions[j].excitations == excitation

    def test_factor_shared_across_excitations(self, plug_system):
        structure, geometry, equilibrium = plug_system
        system = ACSystem(structure, geometry, equilibrium, 1e9)
        system.solve({"plug1": 1.0, "plug2": 0.0})
        system.solve({"plug1": 0.0, "plug2": 2.5})
        system.solve_ports(["plug1", "plug2"])
        # One pinned-contact set -> one cached restriction.
        assert len(system._factor_cache) == 1

    def test_port_validation(self, plug_system):
        structure, geometry, equilibrium = plug_system
        system = ACSystem(structure, geometry, equilibrium, 1e9)
        with pytest.raises(GeometryError):
            system.solve_ports([])
        with pytest.raises(GeometryError):
            system.solve_ports(["plug1", "plug1"])


class TestEquilibriumCache:
    def _counting_solver(self, structure, monkeypatch):
        calls = {"count": 0}
        real = avsolver_module.solve_equilibrium

        def counted(*args, **kwargs):
            calls["count"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(avsolver_module, "solve_equilibrium",
                            counted)
        return AVSolver(structure, frequency=1e9), calls

    def test_same_sample_reuses_equilibrium(self, coarse_plug_structure,
                                            monkeypatch):
        solver, calls = self._counting_solver(coarse_plug_structure,
                                              monkeypatch)
        solver.solve({"plug1": 1.0, "plug2": 0.0})
        solver.solve({"plug1": 0.0, "plug2": 1.0})
        solver.solve_ports(["plug1", "plug2"])
        assert calls["count"] == 1

    def test_new_sample_invalidates(self, coarse_plug_structure,
                                    monkeypatch):
        from repro.materials import UniformDoping

        solver, calls = self._counting_solver(coarse_plug_structure,
                                              monkeypatch)
        excitation = {"plug1": 1.0, "plug2": 0.0}
        solver.solve(excitation)
        doping = UniformDoping(2.0e21)
        solver.solve(excitation, doping_profile=doping)
        assert calls["count"] == 2
        # Same doping object again: cache hit.
        solver.solve(excitation, doping_profile=doping)
        assert calls["count"] == 2
        # A distinct geometry sample invalidates too.
        geometry = compute_geometry(coarse_plug_structure.grid,
                                    links=solver.links)
        solver.solve(excitation, geometry=geometry,
                     doping_profile=doping)
        assert calls["count"] == 3

    def test_matches_uncached_solution(self, coarse_plug_structure):
        excitation = {"plug1": 1.0, "plug2": 0.0}
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        first = solver.solve(excitation)
        second = solver.solve(excitation)
        reference = AVSolver(coarse_plug_structure,
                             frequency=1e9).solve(excitation)
        np.testing.assert_array_equal(first.potential, second.potential)
        np.testing.assert_array_equal(first.potential,
                                      reference.potential)


class TestBatchedSweep:
    def test_duplicate_frequencies_deduped(self, coarse_plug_structure):
        result = frequency_sweep(coarse_plug_structure,
                                 [1.0e9, 1.0e9, 5.0e8])
        np.testing.assert_allclose(result.frequencies, [5.0e8, 1.0e9])
        assert result.admittance.shape == (2, 2, 2)

    def test_matches_per_port_rebuild(self, coarse_plug_structure):
        frequency = 1.0e9
        result = frequency_sweep(coarse_plug_structure, [frequency])
        from repro.extraction import port_current

        solver = AVSolver(coarse_plug_structure, frequency=frequency)
        for j, driven in enumerate(result.ports):
            excitation = {name: (1.0 if name == driven else 0.0)
                          for name in result.ports}
            solution = solver.solve(excitation)
            for i, port in enumerate(result.ports):
                np.testing.assert_allclose(
                    result.admittance[0, i, j],
                    port_current(solution, port), rtol=1e-12)


class TestMultiPortProblem:
    def test_table1_multi_port_matches_single(self):
        from repro.experiments import Table1Config, table1_problem
        from repro.geometry import MetalPlugDesign
        from repro.units import um

        config = Table1Config(design=MetalPlugDesign(max_step=um(2.0)),
                              rdf_nodes=8)
        single = table1_problem("doping", config)
        multi = table1_problem("doping", config, multi_port=True)
        assert multi.qoi_names == ["J_interface@plug1",
                                   "J_interface@plug2"]
        xi = {"doping": np.full(8, 0.05)}
        values = multi.evaluate_sample(xi)
        assert values.shape == (2,)
        np.testing.assert_allclose(values[0],
                                   single.evaluate_sample(xi)[0],
                                   rtol=1e-12)

    def test_table2_multi_port_contains_column(self):
        from repro.experiments import (
            TABLE2_CONTACTS,
            Table2Config,
            table2_problem,
        )
        from repro.geometry import TsvDesign
        from repro.units import um

        config = Table2Config(
            design=TsvDesign(max_step=um(2.5), margin=um(2.5)),
            rdf_nodes=8)
        single = table2_problem(config)
        multi = table2_problem(config, multi_port=True)
        assert len(multi.qoi_names) == 36
        xi_groups = {g.name: np.zeros(g.size) for g in multi.groups}
        matrix = multi.evaluate_sample(xi_groups).reshape(6, 6)
        column = single.evaluate_sample(xi_groups)
        np.testing.assert_allclose(matrix[:, 0], column, rtol=1e-10)
        assert multi.qoi_names[0] == f"C_{TABLE2_CONTACTS[0]}" \
                                     f"_{TABLE2_CONTACTS[0]}"
