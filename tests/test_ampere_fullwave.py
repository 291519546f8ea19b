"""Tests for the Ampere (vector-potential) pass and full-wave mode."""

import numpy as np
import pytest

from repro.materials.doping import UniformDoping
from repro.solver import AVSolver
from repro.solver.ampere import AmpereSystem
from repro.extraction import port_current


@pytest.fixture(scope="module")
def plug_solver(coarse_plug_structure):
    return AVSolver(coarse_plug_structure, frequency=1.0e9)


class TestAmpereSystem:
    def test_curl_curl_annihilates_gradients(self, plug_solver):
        """Gradient fields are (numerically) in the curl-curl nullspace."""
        ampere = AmpereSystem(plug_solver.structure,
                              plug_solver.nominal_geometry)
        rng = np.random.default_rng(0)
        phi = rng.standard_normal(plug_solver.structure.grid.num_nodes)
        from repro.em import gradient_matrix

        grad = gradient_matrix(plug_solver.links) @ phi
        out = ampere.curl_curl @ grad
        scale = abs(ampere.curl_curl).max() * np.abs(grad).max()
        assert np.abs(out).max() < 1e-10 * scale

    def test_solenoidal_projection_removes_divergence(self, plug_solver):
        ampere = AmpereSystem(plug_solver.structure,
                              plug_solver.nominal_geometry)
        rng = np.random.default_rng(1)
        current = (rng.standard_normal(plug_solver.links.num_links)
                   + 1j * rng.standard_normal(plug_solver.links.num_links))
        projected = ampere.solenoidal_projection(current)
        divergence = ampere.div @ projected
        assert np.abs(divergence).max() < 1e-10 * np.abs(current).max()

    def test_vector_potential_finite(self, plug_solver):
        ampere = AmpereSystem(plug_solver.structure,
                              plug_solver.nominal_geometry)
        solution = plug_solver.solve({"plug1": 1.0, "plug2": 0.0})
        current = solution.link_total_current()
        a = ampere.solve_vector_potential(current)
        assert np.all(np.isfinite(a))
        assert np.abs(a).max() > 0.0


class TestFullWaveMode:
    def test_correction_negligible_at_1ghz(self, coarse_plug_structure):
        """The induction EMF at 1 GHz on a micrometre structure changes
        the port current by far less than a percent — the physical
        justification for the quasi-static default."""
        qs = AVSolver(coarse_plug_structure, frequency=1.0e9)
        fw = AVSolver(coarse_plug_structure, frequency=1.0e9,
                      full_wave=True)
        excitation = {"plug1": 1.0, "plug2": 0.0}
        i_qs = port_current(qs.solve(excitation), "plug1")
        sol_fw = fw.solve(excitation)
        i_fw = port_current(sol_fw, "plug1")
        assert sol_fw.vector_potential is not None
        assert abs(i_fw - i_qs) < 1e-3 * abs(i_qs)

    def test_correction_grows_with_frequency(self, coarse_plug_structure):
        excitation = {"plug1": 1.0, "plug2": 0.0}
        rel = []
        for freq in (1.0e9, 5.0e10):
            qs = AVSolver(coarse_plug_structure, frequency=freq)
            fw = AVSolver(coarse_plug_structure, frequency=freq,
                          full_wave=True)
            i_qs = port_current(qs.solve(excitation), "plug1")
            i_fw = port_current(fw.solve(excitation), "plug1")
            rel.append(abs(i_fw - i_qs) / abs(i_qs))
        assert rel[1] > rel[0]

    def test_kcl_still_holds_with_fullwave(self, coarse_plug_structure):
        fw = AVSolver(coarse_plug_structure, frequency=1.0e9,
                      full_wave=True)
        sol = fw.solve({"plug1": 1.0, "plug2": 0.0})
        i1 = port_current(sol, "plug1")
        i2 = port_current(sol, "plug2")
        assert abs(i1 + i2) < 1e-8 * abs(i1)

    @pytest.mark.parametrize("ports", [False, True])
    def test_batched_samples_match_single_solves(self, coarse_plug_structure,
                                                 ports):
        # Every sample of a block takes its own Ampere pass after the
        # block's lockstep AC solve.
        net = coarse_plug_structure.primary_semiconductor().net_doping
        samples = [(None, None), (None, UniformDoping(1.02 * net)),
                   (None, UniformDoping(0.98 * net))]
        drive = {"plug1": 1.0, "plug2": 0.0}
        batched, single = (AVSolver(coarse_plug_structure, frequency=1.0e9,
                                    full_wave=True) for _ in range(2))
        if ports:
            answers = batched.solve_samples(samples, ports=list(drive))
        else:
            answers = batched.solve_samples(samples, excitations=drive)
        for (geometry, doping), answer in zip(samples, answers):
            if ports:
                alone = single.solve_ports(list(drive), geometry=geometry,
                                           doping_profile=doping)
            else:
                answer, alone = [answer], [single.solve(
                    drive, geometry=geometry, doping_profile=doping)]
            for solution, expected in zip(answer, alone):
                assert np.array_equal(solution.potential,
                                      expected.potential)
                assert np.array_equal(solution.vector_potential,
                                      expected.vector_potential)
