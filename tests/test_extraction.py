"""Tests for current / charge / field extraction."""

import numpy as np
import pytest

from repro.errors import ExtractionError
from repro.extraction import (
    capacitance_column,
    metal_semiconductor_current,
    node_set_outflow,
    port_current,
    potential_cross_section,
)
from repro.extraction.capacitance import (
    conductor_charge,
    conductor_mask_for_contact,
)
from repro.geometry import Box, Structure
from repro.materials import silicon_dioxide, tungsten
from repro.mesh import CartesianGrid, LinkSet
from repro.mesh.refine import uniform_axis
from repro.solver import AVSolver
from repro.units import um


def _two_plates():
    """Two tungsten plates in oxide, contacts ``bot`` and ``top``."""
    grid = CartesianGrid(uniform_axis(0, um(4.0), 4),
                         uniform_axis(0, um(4.0), 4),
                         uniform_axis(0, um(4.0), 4))
    structure = Structure(grid, background=silicon_dioxide())
    bottom = Box((0.0, 0.0, 0.0), (um(4.0), um(4.0), um(1.0)))
    top = Box((0.0, 0.0, um(3.0)), (um(4.0), um(4.0), um(4.0)))
    structure.add_box(tungsten("m1"), bottom)
    structure.add_box(tungsten("m2"), top)
    structure.add_contact_on_box_face("bot", bottom, "z-")
    structure.add_contact_on_box_face("top", top, "z+")
    return structure, grid


@pytest.fixture(scope="module")
def plug_solution(coarse_plug_structure):
    solver = AVSolver(coarse_plug_structure, frequency=1.0e9)
    return solver.solve({"plug1": 1.0, "plug2": 0.0})


@pytest.fixture(scope="module")
def tsv_solution(coarse_tsv_structure):
    solver = AVSolver(coarse_tsv_structure, frequency=1.0e9)
    grounded = {name: 0.0 for name in coarse_tsv_structure.contacts}
    return solver.solve(dict(grounded, tsv1=1.0))


class TestCurrents:
    def test_ports_balance(self, plug_solution):
        i1 = port_current(plug_solution, "plug1")
        i2 = port_current(plug_solution, "plug2")
        assert abs(i1 + i2) < 1e-8 * abs(i1)

    def test_interface_currents_balance(self, plug_solution):
        """Current into silicon under plug1 = current out under plug2."""
        total = metal_semiconductor_current(plug_solution)
        mask1 = conductor_mask_for_contact(
            plug_solution.structure, plug_solution.geometry.links,
            "plug1")
        j1 = metal_semiconductor_current(plug_solution,
                                         restrict_nodes=np.nonzero(mask1)[0])
        assert abs(total) < 1e-6 * abs(j1)

    def test_interface_current_majority_of_port_current(self,
                                                        plug_solution):
        """Most of the plug1 current crosses into the silicon; the rest
        is displacement through the surrounding oxide (which is coarse-
        mesh sensitive, hence the loose bound)."""
        mask1 = conductor_mask_for_contact(
            plug_solution.structure, plug_solution.geometry.links,
            "plug1")
        j1 = metal_semiconductor_current(
            plug_solution, restrict_nodes=np.nonzero(mask1)[0])
        i1 = port_current(plug_solution, "plug1")
        assert abs(j1) > 0.5 * abs(i1)
        assert abs(j1) < 1.2 * abs(i1)
        # Same sign of real (conductive) part.
        assert np.sign(j1.real) == np.sign(i1.real)

    def test_outflow_of_everything_is_zero(self, plug_solution):
        n = plug_solution.structure.grid.num_nodes
        full = np.ones(n, dtype=bool)
        assert node_set_outflow(plug_solution, full) == 0.0

    def test_no_interface_raises(self, tsv_solution):
        """The lined TSV structure has no metal-semiconductor contact."""
        with pytest.raises(ExtractionError):
            metal_semiconductor_current(tsv_solution)

    def test_mask_shape_checked(self, plug_solution):
        with pytest.raises(ExtractionError):
            node_set_outflow(plug_solution, np.ones(3, dtype=bool))


class TestCapacitance:
    def test_signs_match_maxwell_convention(self, tsv_solution):
        col = capacitance_column(tsv_solution, "tsv1")
        assert col["tsv1"].real > 0.0
        for name in ("tsv2", "w1", "w2", "w3", "w4"):
            assert col[name].real < 0.0, name

    def test_far_wire_smallest(self, tsv_solution):
        """|C_T1W2| is orders smaller: W2 flanks TSV2, not TSV1."""
        col = capacitance_column(tsv_solution, "tsv1")
        others = [abs(col[n].real) for n in ("w1", "w3", "w4")]
        assert abs(col["w2"].real) < 0.1 * min(others)

    def test_symmetric_wires_nearly_equal(self, tsv_solution):
        """W3 and W4 flank TSV1 at the same gap."""
        col = capacitance_column(tsv_solution, "tsv1")
        c3 = abs(col["w3"].real)
        c4 = abs(col["w4"].real)
        assert abs(c3 - c4) < 0.25 * max(c3, c4)

    def test_self_cap_dominates(self, tsv_solution):
        col = capacitance_column(tsv_solution, "tsv1")
        assert abs(col["tsv1"].real) > max(
            abs(col[n].real) for n in ("tsv2", "w1", "w2", "w3", "w4"))

    def test_column_labels_conductors_once(self, tsv_solution,
                                           monkeypatch):
        """One connected-components pass per structure, however many
        columns and masks read it, and the same charges as
        per-contact masks."""
        import repro.extraction.capacitance as capacitance

        structure = tsv_solution.structure
        links = tsv_solution.geometry.links
        expected = {name: conductor_charge(
            tsv_solution,
            conductor_mask_for_contact(structure, links, name))
            for name in sorted(structure.contacts)}
        calls = []
        labels = capacitance.conductor_labels
        monkeypatch.setattr(
            capacitance, "conductor_labels",
            lambda *args: calls.append(1) or labels(*args))
        # From a cold structure cache: the first column labels, the
        # second column and a mask read the stored labels.
        monkeypatch.setattr(structure, "_derived", {})
        assert capacitance_column(tsv_solution, "tsv1") == expected
        assert capacitance_column(tsv_solution, "tsv1") == expected
        conductor_mask_for_contact(structure, links, "tsv2")
        assert len(calls) == 1

    def test_a_wave_labels_conductors_once(self, monkeypatch):
        import repro.extraction.capacitance as capacitance
        from repro.experiments import table2_spec

        problem = table2_spec(max_step_um=2.5, margin_um=2.5,
                              rdf_nodes=8).build_problem()
        calls = []
        labels = capacitance.conductor_labels
        monkeypatch.setattr(
            capacitance, "conductor_labels",
            lambda *args: calls.append(1) or labels(*args))
        zero = {group.name: np.zeros(group.size)
                for group in problem.groups}
        rows = problem.evaluate_samples([zero] * 5)
        assert rows.shape[0] == 5
        assert len(calls) == 1

    def test_a_shared_nominal_keeps_one_labeling(self, monkeypatch):
        """A problem whose solver shares an earlier problem's nominal
        state, and so its link set, still labels its conductors once."""
        import repro.extraction.capacitance as capacitance
        from repro.experiments import table2_spec

        def build():
            return table2_spec(max_step_um=2.5, margin_um=2.5,
                               rdf_nodes=8).build_problem()

        build().nominal_solution()
        problem = build()
        calls = []
        labels = capacitance.conductor_labels
        monkeypatch.setattr(
            capacitance, "conductor_labels",
            lambda *args: calls.append(1) or labels(*args))
        zero = {group.name: np.zeros(group.size)
                for group in problem.groups}
        problem.evaluate_samples([zero] * 5)
        assert problem.solver.nominal_shared
        assert len(calls) == 1

    def test_painting_a_box_drops_the_labels(self):
        structure, _ = _two_plates()
        links = LinkSet(structure.grid)
        before = conductor_mask_for_contact(structure, links, "top")
        structure.add_box(tungsten("m3"), Box((0.0, 0.0, 0.0),
                                              (um(4.0), um(4.0), um(4.0))))
        # One conductor now joins both contacts' nodes.
        after = conductor_mask_for_contact(structure, links, "top")
        assert np.array_equal(
            after, conductor_mask_for_contact(structure, links, "bot"))
        assert after.sum() > before.sum()

    def test_requires_driven_contact(self, tsv_solution):
        with pytest.raises(ExtractionError):
            capacitance_column(tsv_solution, "tsv2")  # driven at 0 V

    def test_charge_scales_with_drive(self, coarse_tsv_structure):
        solver = AVSolver(coarse_tsv_structure, frequency=1.0e9)
        grounded = {n: 0.0 for n in coarse_tsv_structure.contacts}
        s1 = solver.solve(dict(grounded, tsv1=1.0))
        s2 = solver.solve(dict(grounded, tsv1=3.0))
        mask = conductor_mask_for_contact(coarse_tsv_structure,
                                          s1.geometry.links, "tsv1")
        q1 = conductor_charge(s1, mask)
        q2 = conductor_charge(s2, mask)
        assert q2 == pytest.approx(3.0 * q1, rel=1e-9)
        # But C = Q/V is drive-independent.
        c1 = capacitance_column(s1, "tsv1")["tsv1"]
        c2 = capacitance_column(s2, "tsv1")["tsv1"]
        assert c2 == pytest.approx(c1, rel=1e-9)


class TestFieldExtraction:
    def test_cross_section_shape(self, plug_solution):
        grid = plug_solution.structure.grid
        u, v, values = potential_cross_section(plug_solution, axis=2,
                                               coordinate=10e-6)
        assert values.shape == (grid.nx, grid.ny)
        assert u.size == grid.nx and v.size == grid.ny

    def test_interface_potential_between_drives(self, plug_solution):
        """Fig. 2(b): the interface potential sits between 0 and 1 V,
        high under plug1 and low under plug2."""
        _, _, values = potential_cross_section(plug_solution, axis=2,
                                               coordinate=10e-6)
        mags = np.abs(values)
        assert mags.max() <= 1.0 + 1e-9
        grid = plug_solution.structure.grid
        i1 = int(np.argmin(np.abs(grid.xs - 2.5e-6)))   # under plug1
        i2 = int(np.argmin(np.abs(grid.xs - 7.5e-6)))   # under plug2
        jmid = int(np.argmin(np.abs(grid.ys - 5.0e-6)))
        assert mags[i1, jmid] > mags[i2, jmid]

    def test_axis_validation(self, plug_solution):
        with pytest.raises(ExtractionError):
            potential_cross_section(plug_solution, axis=4,
                                    coordinate=0.0)
