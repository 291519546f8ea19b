"""Physics validation of the coupled solver on analytically known cases.

These are the tests that anchor the whole reproduction: resistance and
capacitance of textbook geometries, Kirchhoff consistency, equilibrium
properties of the DC solve, and reciprocity of the capacitance matrix.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.solver.avsolver as avsolver
import repro.solver.newton as newton
from repro.constants import EPS0
from repro.errors import GeometryError
from repro.experiments import table1_spec, table2_spec
from repro.extraction import port_current
from repro.extraction.capacitance import (
    capacitance_column,
    conductor_labels,
    conductor_mask_for_contact,
)
from repro.geometry import Box, Structure
from repro.materials import silicon_dioxide, tungsten, vacuum
from repro.materials.physics import equilibrium_potential
from repro.mesh import CartesianGrid
from repro.mesh.refine import uniform_axis
from repro.serving import build_surrogate
from repro.mesh.perturbed import PerturbedGrid
from repro.solver import AVSolver, SparseFactor, backends
from repro.solver.ac import ACSystem, solve_systems
from repro.solver.avsolver import AC_BATCH
from repro.solver.dc import solve_equilibrium
from repro.solver.linear import _FACTORIZATIONS, max_scaled, row_scaling
from repro.units import um
from repro.variation.random_field import stable_cholesky


def _metal_bar(sigma=1.0e7, n=5):
    """A metal bar between two end contacts inside vacuum padding."""
    grid = CartesianGrid(uniform_axis(0, um(4.0), 4),
                         uniform_axis(0, um(4.0), 4),
                         uniform_axis(0, um(8.0), n))
    s = Structure(grid, background=vacuum())
    bar = Box((um(1.0), um(1.0), 0.0), (um(3.0), um(3.0), um(8.0)))
    from repro.materials.material import Metal

    s.add_box(Metal(name="bar", eps_r=1.0, sigma=sigma), bar)
    s.add_contact_on_box_face("bottom", bar, "z-")
    s.add_contact_on_box_face("top", bar, "z+")
    return s, bar


class TestResistor:
    def test_bar_resistance_matches_ohms_law(self):
        """R = L / (sigma A) for a uniform bar, within FVM accuracy."""
        sigma = 1.0e5
        s, bar = _metal_bar(sigma=sigma, n=8)
        solver = AVSolver(s, frequency=1.0e3)  # quasi-DC
        sol = solver.solve({"top": 1.0, "bottom": 0.0})
        current = port_current(sol, "top")
        area = bar.size[0] * bar.size[1]
        r_expected = bar.size[2] / (sigma * area)
        r_measured = 1.0 / current.real
        assert r_measured == pytest.approx(r_expected, rel=0.05)

    def test_resistance_scales_with_conductivity(self):
        results = []
        for sigma in (1.0e4, 1.0e5):
            s, _ = _metal_bar(sigma=sigma)
            solver = AVSolver(s, frequency=1.0e3)
            sol = solver.solve({"top": 1.0, "bottom": 0.0})
            results.append(port_current(sol, "top").real)
        assert results[1] == pytest.approx(10.0 * results[0], rel=1e-3)

    def test_kirchhoff_current_balance(self):
        s, _ = _metal_bar()
        solver = AVSolver(s, frequency=1.0e6)
        sol = solver.solve({"top": 1.0, "bottom": 0.0})
        i_top = port_current(sol, "top")
        i_bottom = port_current(sol, "bottom")
        assert i_top + i_bottom == pytest.approx(0.0, abs=1e-9 * abs(i_top))


def _parallel_plates(gap_cells=4):
    """Two metal plates separated by oxide (fringe-free-ish)."""
    grid = CartesianGrid(uniform_axis(0, um(10.0), 5),
                         uniform_axis(0, um(10.0), 5),
                         uniform_axis(0, um(3.0), gap_cells + 2))
    s = Structure(grid, background=silicon_dioxide())
    dz = um(3.0) / (gap_cells + 2)
    bottom = Box((0.0, 0.0, 0.0), (um(10.0), um(10.0), dz))
    top = Box((0.0, 0.0, um(3.0) - dz), (um(10.0), um(10.0), um(3.0)))
    s.add_box(tungsten("m1"), bottom)
    s.add_box(tungsten("m2"), top)
    s.add_contact_on_box_face("bot", bottom, "z-")
    s.add_contact_on_box_face("top", top, "z+")
    gap = um(3.0) - 2 * dz
    return s, gap


class TestCapacitor:
    def test_parallel_plate_capacitance(self):
        s, gap = _parallel_plates()
        solver = AVSolver(s, frequency=1.0e9)
        sol = solver.solve({"top": 1.0, "bot": 0.0})
        col = capacitance_column(sol, "top")
        area = um(10.0) * um(10.0)
        c_expected = 3.9 * EPS0 * area / gap
        # Full-plane plates on a matching grid: no fringe error.
        assert col["bot"].real == pytest.approx(-c_expected, rel=1e-6)
        assert col["top"].real == pytest.approx(c_expected, rel=1e-6)

    def test_charge_neutrality_of_column(self):
        s, _ = _parallel_plates()
        solver = AVSolver(s, frequency=1.0e9)
        sol = solver.solve({"top": 1.0, "bot": 0.0})
        col = capacitance_column(sol, "top")
        total = col["top"] + col["bot"]
        assert abs(total) < 1e-3 * abs(col["top"])

    def test_reciprocity(self, coarse_tsv_structure):
        """C_ij = C_ji for the TSV structure (Maxwell matrix symmetry)."""
        solver = AVSolver(coarse_tsv_structure, frequency=1.0e9)
        grounded = {name: 0.0 for name in coarse_tsv_structure.contacts}
        ex1 = dict(grounded, tsv1=1.0)
        ex2 = dict(grounded, tsv2=1.0)
        col1 = capacitance_column(solver.solve(ex1), "tsv1")
        col2 = capacitance_column(solver.solve(ex2), "tsv2")
        assert col1["tsv2"].real == pytest.approx(col2["tsv1"].real,
                                                  rel=1e-3)

    def test_port_current_equals_jwq(self, coarse_tsv_structure):
        """I_port ~ j w Q for a capacitive structure (displacement
        dominated through the driven TSV's oxide)."""
        solver = AVSolver(coarse_tsv_structure, frequency=1.0e9)
        grounded = {name: 0.0 for name in coarse_tsv_structure.contacts}
        sol = solver.solve(dict(grounded, tsv1=1.0))
        q = capacitance_column(sol, "tsv1")["tsv1"]
        i_port = port_current(sol, "tsv1")
        omega = 2 * np.pi * 1.0e9
        # Current into the conductor = j w Q (plus small substrate loss
        # and the neighbouring conductors' share).
        assert i_port.imag == pytest.approx(omega * q.real, rel=0.35)


class TestConductorLabels:
    def test_tsv_structure_has_six_conductors(self, coarse_tsv_structure):
        from repro.mesh import LinkSet

        links = LinkSet(coarse_tsv_structure.grid)
        labels = conductor_labels(coarse_tsv_structure, links)
        present = np.unique(labels[labels >= 0])
        assert present.size == 6

    def test_conductor_labels_agree_with_networkx(self,
                                                  coarse_tsv_structure):
        """Cross-validate the csgraph component labelling."""
        import networkx as nx

        from repro.mesh import LinkSet

        links = LinkSet(coarse_tsv_structure.grid)
        labels = conductor_labels(coarse_tsv_structure, links)
        metal = coarse_tsv_structure.node_kinds().metal
        graph = nx.Graph()
        graph.add_nodes_from(np.nonzero(metal)[0].tolist())
        both = metal[links.node_a] & metal[links.node_b]
        graph.add_edges_from(zip(links.node_a[both].tolist(),
                                 links.node_b[both].tolist()))
        components = list(nx.connected_components(graph))
        assert len(components) == 6
        for comp in components:
            comp_labels = set(labels[list(comp)].tolist())
            assert len(comp_labels) == 1

    def test_contact_spanning_conductors_rejected(self,
                                                  coarse_tsv_structure):
        from repro.mesh import LinkSet

        s = coarse_tsv_structure
        links = LinkSet(s.grid)
        # Forge a contact set spanning tsv1 and tsv2.
        ids = np.concatenate([s.contact_node_ids("tsv1"),
                              s.contact_node_ids("tsv2")])
        from repro.errors import ExtractionError

        s.contacts["forged"] = ids
        try:
            with pytest.raises(ExtractionError):
                conductor_mask_for_contact(s, links, "forged")
        finally:
            del s.contacts["forged"]


class TestEquilibrium:
    def test_uniform_doping_flat_potential(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        eq = solve_equilibrium(coarse_plug_structure,
                               solver.nominal_geometry)
        mask = eq.carrier_mask
        material = coarse_plug_structure.primary_semiconductor()
        expected = equilibrium_potential(material.net_doping,
                                         eq.ni, eq.vt)
        interior = mask & (eq.semi_node_volumes
                           > 0.9 * eq.semi_node_volumes[mask].max())
        np.testing.assert_allclose(eq.potential[interior], expected,
                                   rtol=1e-3)

    def test_mass_action_law(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        eq = solve_equilibrium(coarse_plug_structure,
                               solver.nominal_geometry)
        mask = eq.carrier_mask
        np.testing.assert_allclose(eq.n0[mask] * eq.p0[mask],
                                   eq.ni ** 2, rtol=1e-9)

    def test_charge_neutral_bulk(self, coarse_plug_structure):
        """Bulk nodes are charge neutral; interface nodes band-bend.

        The Si/SiO2 interface carries a genuine depletion response, so
        neutrality is asserted only for interior nodes (full dual
        volume inside the semiconductor).
        """
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        eq = solve_equilibrium(coarse_plug_structure,
                               solver.nominal_geometry)
        mask = eq.carrier_mask
        interior = mask & (eq.semi_node_volumes
                           > 0.9 * eq.semi_node_volumes[mask].max())
        net = eq.n0[interior] - eq.p0[interior]
        np.testing.assert_allclose(net, eq.net_doping[interior],
                                   rtol=1e-3)

    def test_no_semiconductor_trivial_state(self):
        s, _ = _parallel_plates()
        solver = AVSolver(s, frequency=1e9)
        eq = solve_equilibrium(s, solver.nominal_geometry)
        assert not eq.has_semiconductor
        np.testing.assert_allclose(eq.potential, 0.0)

    def test_doping_override_shifts_potential(self, coarse_plug_structure):
        from repro.materials import UniformDoping

        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        eq_lo = solve_equilibrium(coarse_plug_structure,
                                  solver.nominal_geometry,
                                  doping_profile=UniformDoping(1e20))
        eq_hi = solve_equilibrium(coarse_plug_structure,
                                  solver.nominal_geometry,
                                  doping_profile=UniformDoping(1e22))
        mask = eq_lo.carrier_mask
        assert eq_hi.potential[mask].mean() > eq_lo.potential[mask].mean()


#: Perturbed-sample problems of both paper structures (fast meshes).
_CHORD_SPECS = {
    "table2": lambda: table2_spec(max_step_um=2.5, margin_um=2.5,
                                  rdf_nodes=8),
    "table1-both": lambda: table1_spec("both", max_step_um=2.0,
                                       rdf_nodes=8),
}


def _draws(problem, count, seed=0):
    """``count`` full-covariance perturbation samples of ``problem``."""
    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    rng = np.random.default_rng(seed)
    return [{group.name: factors[group.name]
             @ rng.standard_normal(group.size)
             for group in problem.groups} for _ in range(count)]


def _solve(problem, xi):
    """``(equilibrium, qoi)`` of one perturbation sample."""
    solution = problem.solve_sample(xi)
    first = (next(iter(solution.values()))
             if isinstance(solution, dict) else solution)
    return first.equilibrium, np.asarray(problem.qoi(solution))


def _dc_steps() -> np.ndarray:
    """``[chord, newton]`` DC step totals of this process."""
    return np.array([newton._STEPS.value(kind="chord"),
                     newton._STEPS.value(kind="newton")])


class TestChordEquilibrium:
    """Perturbed samples iterate through the nominal DC factor."""

    @pytest.mark.parametrize("name", sorted(_CHORD_SPECS))
    def test_chord_matches_full_newton(self, name):
        chord = _CHORD_SPECS[name]().build_problem()
        chord.solver.dc_reference()
        plain = _CHORD_SPECS[name]().build_problem()
        plain.solver.dc_reference = lambda: None
        for xi in _draws(chord, 3):
            before = _dc_steps()
            eq_chord, qoi_chord = _solve(chord, xi)
            steps = _dc_steps() - before
            assert steps.tolist() == [eq_chord.iterations, 0]
            eq_newton, qoi_newton = _solve(plain, xi)
            gap = np.abs(eq_chord.potential - eq_newton.potential).max()
            assert gap < 1e-13
            np.testing.assert_allclose(qoi_chord, qoi_newton,
                                       rtol=1e-12, atol=0)

    def test_sample_answer_independent_of_solve_order(self):
        first, second = _draws(_CHORD_SPECS["table2"]().build_problem(),
                               2, seed=1)
        after = _CHORD_SPECS["table2"]().build_problem()
        _solve(after, first)
        eq_after, qoi_after = _solve(after, second)
        fresh = _CHORD_SPECS["table2"]().build_problem()
        eq_fresh, qoi_fresh = _solve(fresh, second)
        assert np.array_equal(eq_after.potential, eq_fresh.potential)
        assert np.array_equal(qoi_after, qoi_fresh)

    def test_wrong_reference_falls_back_to_newton_root(self):
        problem = _CHORD_SPECS["table2"]().build_problem()
        solver = problem.solver
        nominal = solve_equilibrium(problem.structure,
                                    solver.nominal_geometry)
        wrong = SparseFactor(100.0 * nominal.jacobian())
        geometry, doping = problem._sample_inputs(_draws(problem, 1)[0])
        grid_geometry = solver.geometry_for(geometry)
        exact = solve_equilibrium(problem.structure, grid_geometry,
                                  doping_profile=doping)
        fallbacks = newton._CHORD_FALLBACKS.value()
        recovered = solve_equilibrium(problem.structure, grid_geometry,
                                      doping_profile=doping,
                                      reference=wrong)
        assert newton._CHORD_FALLBACKS.value() == fallbacks + 1
        assert np.abs(recovered.potential
                      - exact.potential).max() < 1e-13

    def test_fixed_build_agrees_without_the_reference(self,
                                                      monkeypatch):
        spec = table1_spec("doping",
                           reduction={"caps": {"doping": 2},
                                      "energy": 0.9},
                           max_step_um=2.0, rdf_nodes=6)
        chord = build_surrogate(spec).pce
        monkeypatch.setattr(AVSolver, "dc_reference",
                            lambda self: None)
        plain = build_surrogate(spec).pce
        np.testing.assert_allclose(chord.mean, plain.mean, rtol=1e-11,
                                   atol=0)
        np.testing.assert_allclose(chord.std, plain.std, rtol=1e-11,
                                   atol=0)


#: The DC chord's problems plus the six-port table2 drive, whose
#: columns refine as one block.
_AC_CHORD_SPECS = {
    **_CHORD_SPECS,
    "table2-ports": lambda: table2_spec(max_step_um=2.5, margin_um=2.5,
                                        rdf_nodes=8, multi_port=True),
}


def _global_matrix(system):
    """The system's 3N x 3N matrix, built by scipy's own COO→CSR
    conversion (the reference the shared patterns reproduce)."""
    rows, cols, vals = system._assemble()
    size = 3 * system.num_nodes
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def _direct(system, frequency, solve):
    """``solve`` run on a twin of ``system`` without AC references."""
    return solve(ACSystem(system.structure, system.geometry,
                          system.equilibrium, frequency,
                          recombination=system.recombination))


class TestACChord:
    """Perturbed samples solve their AC system through the nominal
    AC factor."""

    @pytest.mark.parametrize("name", sorted(_AC_CHORD_SPECS))
    def test_chord_matches_direct_solve(self, name):
        problem = _AC_CHORD_SPECS[name]().build_problem()
        problem.nominal_solution()
        for xi in _draws(problem, 3):
            before = _FACTORIZATIONS.value()
            solution = problem.solve_sample(xi)
            assert _FACTORIZATIONS.value() == before
            if problem.ports is None:
                direct = _direct(solution.system, problem.frequency,
                                 lambda s: s.solve(problem.excitations))
            else:
                system = solution[problem.ports[0]].system
                direct = dict(zip(problem.ports, _direct(
                    system, problem.frequency,
                    lambda s: s.solve_ports(problem.ports))))
            np.testing.assert_allclose(problem.qoi(solution),
                                       problem.qoi(direct),
                                       rtol=1e-12, atol=0)

    def test_wrong_reference_falls_back_to_the_direct_answer(self):
        problem = _CHORD_SPECS["table2"]().build_problem()
        contacts = frozenset(problem.excitations)
        nominal = problem.solver.system_for()
        unknown = nominal._restricted_system(contacts).unknown
        wrong = SparseFactor(
            100.0 * _global_matrix(nominal)[unknown][:, unknown])
        geometry, doping = problem._sample_inputs(_draws(problem, 1)[0])
        sample = problem.solver.system_for(geometry, doping)
        fallbacks = backends._AC_CHORD_FALLBACKS.value()
        recovered = ACSystem(
            problem.structure, sample.geometry, sample.equilibrium,
            problem.frequency,
            references={contacts: wrong}).solve(problem.excitations)
        assert backends._AC_CHORD_FALLBACKS.value() == fallbacks + 1
        exact = _direct(sample, problem.frequency,
                        lambda s: s.solve(problem.excitations))
        assert np.array_equal(recovered.potential, exact.potential)

    def test_structure_without_semiconductor_chords(self):
        structure, _ = _parallel_plates()
        solver = AVSolver(structure, frequency=1.0e9)
        excitation = {"top": 1.0, "bot": 0.0}
        solver.solve(excitation)
        grid = structure.grid
        levels = grid.node_ijk(np.arange(grid.num_nodes))[2]
        gap_nodes = np.flatnonzero(np.isin(levels, (2, 3)))
        rng = np.random.default_rng(2)
        displacement = np.zeros((grid.num_nodes, 3))
        displacement[gap_nodes, 2] = um(0.02) * rng.standard_normal(
            gap_nodes.size)
        perturbed = PerturbedGrid(grid, displacement, links=solver.links)
        steps = backends._AC_CHORD_STEPS.value()
        before = _FACTORIZATIONS.value()
        chord = solver.solve(excitation, geometry=perturbed)
        assert _FACTORIZATIONS.value() == before
        assert backends._AC_CHORD_STEPS.value() > steps
        assert not chord.equilibrium.has_semiconductor
        direct = _direct(chord.system, 1.0e9,
                         lambda s: s.solve(excitation))
        column, exact = (capacitance_column(solution, "top")
                         for solution in (chord, direct))
        for name in column:
            assert column[name] == pytest.approx(exact[name], rel=1e-12)

    def test_samples_hold_no_reference_to_the_solver(self):
        # A sample system that referred back to its solver would close
        # a cycle through the sample cache and keep every dropped
        # solver's assemblies alive until the cyclic collector ran.
        problem = _CHORD_SPECS["table2"]().build_problem()
        geometry, doping = problem._sample_inputs(_draws(problem, 1)[0])
        gc.collect()
        gc.disable()
        try:
            solver = AVSolver(problem.structure, problem.frequency)
            solution = solver.solve(problem.excitations, geometry=geometry,
                                    doping_profile=doping)
            alive = [weakref.ref(solver), weakref.ref(solution.system),
                     weakref.ref(solver.system_for())]
            del solver, solution
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            gc.enable()

    def test_fixed_build_agrees_without_the_reference(self,
                                                      monkeypatch):
        spec = table1_spec("doping",
                           reduction={"caps": {"doping": 2},
                                      "energy": 0.9},
                           max_step_um=2.0, rdf_nodes=6)
        chord = build_surrogate(spec).pce
        monkeypatch.setattr(AVSolver, "ac_reference",
                            lambda self, contacts: None)
        plain = build_surrogate(spec).pce
        np.testing.assert_allclose(chord.mean, plain.mean, rtol=1e-11,
                                   atol=0)
        np.testing.assert_allclose(chord.std, plain.std, rtol=1e-11,
                                   atol=0)


def _lone_rows(name, xis):
    """QoI rows of ``xis``, each sample evaluated on its own."""
    problem = _AC_CHORD_SPECS[name]().build_problem()
    return np.vstack([problem.evaluate_sample(xi) for xi in xis])


def _ac_steps() -> float:
    return backends._AC_CHORD_STEPS.value()


class TestBatchedChords:
    """A wave's samples solve their AC chords ``AC_BATCH`` to a
    lockstep block, each bitwise what it gets alone."""

    @pytest.mark.parametrize("name", sorted(_AC_CHORD_SPECS))
    def test_blocks_match_lone_samples_bitwise(self, name):
        problem = _AC_CHORD_SPECS[name]().build_problem()
        xis = _draws(problem, 2 * AC_BATCH + 1)  # blocks of 4, 4 and 1
        fallbacks = backends._AC_CHORD_FALLBACKS.value()
        batched = problem.evaluate_samples(xis)
        assert backends._AC_CHORD_FALLBACKS.value() == fallbacks
        assert batched.shape == (len(xis), len(problem.qoi_names))
        assert np.array_equal(batched, _lone_rows(name, xis))

    def test_a_failing_sample_leaves_the_others_unchanged(self):
        problem = _CHORD_SPECS["table2"]().build_problem()
        contacts = frozenset(problem.excitations)
        solver = problem.solver
        nominal = solver.system_for()
        unknown = nominal._restricted_system(contacts).unknown
        wrong = SparseFactor(
            100.0 * _global_matrix(nominal)[unknown][:, unknown])
        references = {contacts: solver.ac_reference(contacts)}
        samples = [solver.system_for(*problem._sample_inputs(xi))
                   for xi in _draws(problem, AC_BATCH)]

        def twins(failing):
            return [ACSystem(problem.structure, sample.geometry,
                             sample.equilibrium, problem.frequency,
                             references=({contacts: wrong}
                                         if i == failing else references))
                    for i, sample in enumerate(samples)]

        fallbacks = backends._AC_CHORD_FALLBACKS.value()
        block = solve_systems(twins(1), excitations=problem.excitations)
        assert backends._AC_CHORD_FALLBACKS.value() == fallbacks + 1
        lone = [system.solve(problem.excitations) for system in twins(None)]
        for i, (solution, alone) in enumerate(zip(block, lone)):
            if i != 1:
                assert np.array_equal(solution.potential, alone.potential)
        exact = _direct(samples[1], problem.frequency,
                        lambda s: s.solve(problem.excitations))
        assert np.array_equal(block[1].potential, exact.potential)

    def test_a_diverging_chord_leaves_its_block(self):
        # Four chords through one reference, one of them on a matrix
        # 100x off it: that one falls back mid-block while the others
        # keep stepping to their lone answers.
        problem = _CHORD_SPECS["table2"]().build_problem()
        solver = problem.solver
        reference = solver.ac_reference(problem.excitations)
        backend = backends.LUBackend()
        matrices, rhs = [], []
        for xi in _draws(problem, AC_BATCH):
            system = solver.system_for(*problem._sample_inputs(xi))
            factor, b, _ = system._drive(problem.excitations)
            matrices.append(factor._matrix)
            rhs.append(b)
        matrices[2] = 100.0 * matrices[2]

        def chords():
            return [backend.chord(matrix, reference) for matrix in matrices]

        lone = []
        for chord, b in zip(chords(), rhs):
            before = _ac_steps()
            lone.append((chord.solve(b), _ac_steps() - before))
        fallbacks = backends._AC_CHORD_FALLBACKS.value()
        before = _ac_steps()
        block = backends.solve_chords(chords(), rhs)
        assert _ac_steps() - before == max(steps for _, steps in lone)
        assert backends._AC_CHORD_FALLBACKS.value() == fallbacks + 1
        for x, (alone, _) in zip(block, lone):
            assert np.array_equal(x, alone)
        assert np.array_equal(
            block[2], SparseFactor(matrices[2]).solve(rhs[2]))

    def test_block_steps_equal_its_longest_chord(self):
        problem = _CHORD_SPECS["table2"]().build_problem()
        problem.nominal_solution()
        xis = _draws(problem, AC_BATCH, seed=3)
        lone = []
        for xi in xis:
            before = _ac_steps()
            problem.evaluate_sample(xi)
            lone.append(_ac_steps() - before)
        before = _ac_steps()
        problem.evaluate_samples(xis)
        assert _ac_steps() - before == max(lone)
        assert max(lone) < sum(lone)

    def test_at_most_one_block_of_samples_alive(self, monkeypatch):
        problem = _CHORD_SPECS["table2"]().build_problem()
        problem.nominal_solution()
        alive, peak = [], []

        class Counted(ACSystem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive.append(weakref.ref(self))
                peak.append(sum(ref() is not None for ref in alive))

        monkeypatch.setattr(avsolver, "ACSystem", Counted)
        xis = _draws(problem, 14)
        gc.collect()
        gc.disable()
        try:
            problem.evaluate_samples(xis)
        finally:
            gc.enable()
        assert len(alive) == 14
        assert max(peak) == AC_BATCH
        assert all(ref() is None for ref in alive)


@pytest.fixture(scope="module", params=sorted(_CHORD_SPECS))
def nominal_matrices(request):
    """The nominal restricted AC matrix and converged DC Jacobian of a
    paper structure, by system."""
    problem = _CHORD_SPECS[request.param]().build_problem()
    nominal = problem.solver.system_for()
    unknown = nominal._restricted_system(
        frozenset(problem.excitations)).unknown
    return {"ac": _global_matrix(nominal)[unknown][:, unknown].tocsr(),
            "dc": nominal.equilibrium.jacobian().tocsr()}


@pytest.mark.parametrize("system", ["ac", "dc"])
class TestOrdering:
    """The symmetric-mode LU of the paper's matrices: less fill than
    SuperLU's default, at the chord's certificate."""

    def test_fill_is_below_the_default_ordering(self, nominal_matrices,
                                                system):
        matrix = nominal_matrices[system]
        default = spla.splu(max_scaled(matrix)[0].tocsc())
        assert 0 < SparseFactor(matrix).fill < default.nnz

    def test_solves_reach_the_chord_certificate(self, nominal_matrices,
                                                system):
        matrix = nominal_matrices[system]
        factor = SparseFactor(matrix)
        rows = row_scaling(matrix)
        rng = np.random.default_rng(7)
        for _ in range(4):
            rhs = rng.standard_normal(matrix.shape[0])
            if system == "ac":
                rhs = rhs + 1j * rng.standard_normal(matrix.shape[0])
            residual = rhs - matrix @ factor.solve(rhs)
            assert (np.linalg.norm(rows * residual)
                    <= backends.CHORD_TOLERANCE
                    * np.linalg.norm(rows * rhs))


class TestACAssembly:
    """The 3N x 3N matrix lives only while a contact set is
    restricted."""

    def test_solved_sample_keeps_no_global_matrix(self):
        problem = _CHORD_SPECS["table2"]().build_problem()
        system = problem.solve_sample(_draws(problem, 1)[0]).system
        size = 3 * system.num_nodes
        held = [vars(system)]
        for restricted in system._factor_cache.values():
            held += [vars(restricted), vars(restricted.factor)]
        assert not [value for fields in held for value in fields.values()
                    if sp.issparse(value) and size in value.shape]

    def test_second_contact_set_solves_as_on_a_fresh_system(self):
        problem = _CHORD_SPECS["table2"]().build_problem()
        second = {"tsv1": 1.0, "tsv2": 0.0}
        # Solving a sample restricts it, and the nominal, to the
        # problem's contact set first.
        sample = problem.solve_sample(_draws(problem, 1)[0]).system
        for system in (problem.solver.system_for(), sample):
            again = system.solve(second)
            fresh = _direct(system, problem.frequency,
                            lambda s: s.solve(second))
            assert np.array_equal(again.potential, fresh.potential)
            assert np.array_equal(again.n, fresh.n)


class TestACSolverBasics:
    def test_excitation_required(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        with pytest.raises(GeometryError):
            solver.solve({})

    def test_dirichlet_values_pinned(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        sol = solver.solve({"plug1": 0.7 + 0.1j, "plug2": 0.0})
        ids = coarse_plug_structure.contact_node_ids("plug1")
        np.testing.assert_allclose(sol.potential[ids], 0.7 + 0.1j)

    def test_metal_body_nearly_equipotential(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        sol = solver.solve({"plug1": 1.0, "plug2": 0.0})
        mask = conductor_mask_for_contact(
            coarse_plug_structure, sol.geometry.links, "plug1")
        # Tungsten has finite conductivity, so an IR drop of a few uV
        # across the plug is physical; "equipotential" means << 1 mV.
        spread = np.abs(sol.potential[mask] - 1.0).max()
        assert spread < 1e-4

    def test_solution_linear_in_drive(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        s1 = solver.solve({"plug1": 1.0, "plug2": 0.0})
        s2 = solver.solve({"plug1": 2.0, "plug2": 0.0})
        i1 = port_current(s1, "plug1")
        i2 = port_current(s2, "plug1")
        assert i2 == pytest.approx(2.0 * i1, rel=1e-9)

    def test_frequency_validation(self, coarse_plug_structure):
        with pytest.raises(GeometryError):
            AVSolver(coarse_plug_structure, frequency=0.0)

    def test_invalid_geometry_argument(self, coarse_plug_structure):
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        with pytest.raises(GeometryError):
            solver.solve({"plug1": 1.0}, geometry="nope")
