"""Tests for shapes, structures and the paper's two builders."""

import numpy as np
import pytest

from repro.errors import GeometryError, MaterialError
from repro.geometry import (
    Box,
    MetalPlugDesign,
    Structure,
    TsvDesign,
    build_metalplug_structure,
    build_tsv_structure,
    facet_nodes,
    interface_links,
    metal_semiconductor_interface_nodes,
)
from repro.materials import doped_silicon, silicon_dioxide, tungsten
from repro.mesh import CartesianGrid, LinkSet
from repro.units import um


class TestBox:
    def test_basic_properties(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert box.size == (1.0, 2.0, 3.0)
        assert box.center == (0.5, 1.0, 1.5)
        assert box.volume == pytest.approx(6.0)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Box((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))
        with pytest.raises(GeometryError):
            Box((0.0, 0.0), (1.0, 1.0))

    def test_contains(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        pts = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
        np.testing.assert_array_equal(box.contains(pts), [True, False])

    def test_overlaps(self):
        a = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        b = Box((0.5, 0.5, 0.5), (2.0, 2.0, 2.0))
        c = Box((1.0, 0.0, 0.0), (2.0, 1.0, 1.0))  # touching face
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_face_box(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 2.0))
        top = box.face_box("z+")
        assert top.lo[2] == pytest.approx(2.0, abs=1e-9)
        assert top.hi[0] == pytest.approx(1.0)
        with pytest.raises(GeometryError):
            box.face_box("q-")


class TestStructure:
    def _structure(self):
        grid = CartesianGrid(np.linspace(0, 4e-6, 5),
                             np.linspace(0, 4e-6, 5),
                             np.linspace(0, 4e-6, 5))
        s = Structure(grid, background=silicon_dioxide())
        s.add_box(doped_silicon(1e21), Box((0, 0, 0), (4e-6, 4e-6, 2e-6)))
        s.add_box(tungsten(), Box((1e-6, 1e-6, 2e-6),
                                  (3e-6, 3e-6, 4e-6)))
        return s

    def test_paint_order_overrides(self):
        s = self._structure()
        # Metal painted last wins in its cells.
        metal_cells, semi_cells, _ = s.cell_kind_masks()
        assert metal_cells.sum() == 2 * 2 * 2
        assert semi_cells.sum() == 4 * 4 * 2

    def test_cell_kind_masks_are_cached_read_only(self):
        s = self._structure()
        masks = s.cell_kind_masks()
        assert all(a is b for a, b in zip(masks, s.cell_kind_masks()))
        assert not any(mask.flags.writeable for mask in masks)

    def test_painting_a_box_drops_the_cell_kind_masks(self):
        s = self._structure()
        metal_before, _, _ = s.cell_kind_masks()
        s.add_box(tungsten("w2"), Box((0, 0, 0), (1e-6, 1e-6, 1e-6)))
        metal_after, _, _ = s.cell_kind_masks()
        assert metal_after.sum() == metal_before.sum() + 1

    def test_a_wave_computes_the_cell_kind_masks_once(self, monkeypatch):
        from repro.experiments import table2_spec
        from repro.variation.random_field import stable_cholesky

        computed = []
        derived = Structure.derived

        def counting(self, key, compute):
            def counted():
                computed.append(key)
                return compute()
            return derived(self, key, counted)

        monkeypatch.setattr(Structure, "derived", counting)
        problem = table2_spec(max_step_um=2.5, margin_um=2.5,
                              rdf_nodes=8).build_problem()
        rng = np.random.default_rng(3)
        xis = [{group.name: stable_cholesky(group.covariance)
                @ rng.standard_normal(group.size)
                for group in problem.groups} for _ in range(5)]
        assert problem.evaluate_samples(xis).shape[0] == 5
        assert computed.count("cell_kind_masks") == 1

    def test_empty_box_rejected(self):
        s = self._structure()
        with pytest.raises(GeometryError):
            s.add_box(tungsten("w2"), Box((10e-6, 10e-6, 10e-6),
                                          (11e-6, 11e-6, 11e-6)))

    def test_node_classification(self):
        s = self._structure()
        kinds = s.node_kinds()
        total = (kinds.num_metal + kinds.num_semiconductor
                 + kinds.num_insulator)
        assert total == s.grid.num_nodes
        # Metal and semiconductor are disjoint by construction.
        assert not np.any(kinds.metal & kinds.semiconductor)
        # Ohmic contacts exist: metal box sits on the silicon slab.
        assert np.any(kinds.ohmic_contact)
        assert np.all(kinds.metal[kinds.ohmic_contact])

    def test_contacts(self):
        s = self._structure()
        s.add_contact("top", s.grid.boundary_node_ids("z+"))
        assert s.contact_node_ids("top").size == 25
        with pytest.raises(GeometryError):
            s.add_contact("top", [0])  # duplicate name
        with pytest.raises(GeometryError):
            s.add_contact("empty", [])
        with pytest.raises(GeometryError):
            s.contact_node_ids("missing")

    def test_net_doping_at_nodes(self):
        s = self._structure()
        doping = s.net_doping_at_nodes()
        kinds = s.node_kinds()
        semi = kinds.semiconductor | kinds.ohmic_contact
        assert np.all(doping[semi] == 1e21)
        assert np.all(doping[~semi] == 0.0)

    def test_primary_semiconductor(self):
        s = self._structure()
        assert s.primary_semiconductor().name == "silicon"

    def test_no_semiconductor_raises(self):
        grid = CartesianGrid(np.linspace(0, 1e-6, 3),
                             np.linspace(0, 1e-6, 3),
                             np.linspace(0, 1e-6, 3))
        s = Structure(grid, background=silicon_dioxide())
        with pytest.raises(MaterialError):
            s.primary_semiconductor()


class TestInterfaces:
    def test_facet_nodes_plane(self, small_grid):
        ids = facet_nodes(small_grid, axis=2, coordinate=1.0e-6)
        assert ids.size == small_grid.nx * small_grid.ny
        coords = small_grid.node_coords()
        np.testing.assert_allclose(coords[ids, 2], 1.0e-6)

    def test_facet_nodes_restricted(self, small_grid):
        ids = facet_nodes(small_grid, axis=2, coordinate=1.0e-6,
                          lo=(0.0, 0.0, 0.0), hi=(1.0e-6, 0.5e-6, 0.0))
        assert ids.size == 4

    def test_facet_nodes_missing_plane(self, small_grid):
        with pytest.raises(GeometryError):
            facet_nodes(small_grid, axis=0, coordinate=9.0e-6)

    def test_interface_links_orientation(self):
        grid = CartesianGrid(np.linspace(0, 2e-6, 3),
                             np.linspace(0, 1e-6, 2),
                             np.linspace(0, 1e-6, 2))
        links = LinkSet(grid)
        s = Structure(grid, background=silicon_dioxide())
        left = np.zeros(grid.num_nodes, dtype=bool)
        left[grid.node_coords()[:, 0] < 0.5e-6] = True
        mid = np.zeros(grid.num_nodes, dtype=bool)
        coords = grid.node_coords()
        mid[np.isclose(coords[:, 0], 1e-6)] = True
        link_ids, orient = interface_links(s, links, left, mid)
        assert link_ids.size == 4  # 2x2 nodes on each plane
        assert np.all(orient == 1)  # node_a (lower x) is on the left


class TestMetalPlugBuilder:
    def test_structure_inventory(self, coarse_plug_structure):
        s = coarse_plug_structure
        names = [m.name for m in s.materials.materials]
        assert names[0] == "ild"
        assert "silicon" in names and "plug_metal" in names
        assert sorted(s.contacts) == ["plug1", "plug2"]

    def test_interface_exists(self, coarse_plug_structure):
        ids = metal_semiconductor_interface_nodes(coarse_plug_structure)
        assert ids.size > 0
        coords = coarse_plug_structure.grid.node_coords()
        np.testing.assert_allclose(coords[ids, 2], 10e-6)

    def test_interface_facets_cover_plugs(self, coarse_plug_design,
                                          coarse_plug_structure):
        facets = coarse_plug_design.interface_facets()
        assert len(facets) == 2
        for facet in facets:
            ids = facet.node_ids(coarse_plug_structure.grid)
            assert ids.size >= 4
            assert facet.axis == 2

    def test_grid_hits_interfaces(self, coarse_plug_structure):
        assert np.any(np.isclose(coarse_plug_structure.grid.zs, 10e-6))

    def test_default_node_count_near_paper(self):
        # Paper example A: 1300 nodes; the default design lands within
        # a factor of ~2 of that.
        s = build_metalplug_structure(MetalPlugDesign())
        assert 600 <= s.grid.num_nodes <= 3000


class TestTsvBuilder:
    def test_structure_inventory(self, coarse_tsv_structure):
        s = coarse_tsv_structure
        assert sorted(s.contacts) == ["tsv1", "tsv2", "w1", "w2", "w3",
                                      "w4"]
        names = [m.name for m in s.materials.materials]
        assert "tsv_metal" in names and "liner" in names

    def test_liner_separates_tsv_from_silicon(self, coarse_tsv_structure):
        """With the liner painted, no TSV metal node touches silicon."""
        kinds = coarse_tsv_structure.node_kinds()
        assert not np.any(kinds.ohmic_contact)

    def test_eight_lateral_facets(self, coarse_tsv_design,
                                  coarse_tsv_structure):
        facets = coarse_tsv_design.lateral_facets()
        assert len(facets) == 8
        axes = sorted(f.axis for f in facets)
        assert axes == [0, 0, 0, 0, 1, 1, 1, 1]
        for facet in facets:
            assert facet.node_ids(coarse_tsv_structure.grid).size >= 4

    def test_coplanar_y_facets(self, coarse_tsv_design):
        """The y-walls of the two TSVs are coplanar (mergeable)."""
        facets = coarse_tsv_design.lateral_facets()
        y_minus = [f for f in facets if f.name.endswith("y-")]
        assert len(y_minus) == 2
        assert y_minus[0].coordinate == pytest.approx(
            y_minus[1].coordinate)

    def test_default_node_count_near_paper(self):
        # Paper example B: 4032 nodes; the default design is within a
        # factor of ~3.
        s = build_tsv_structure(TsvDesign())
        assert 3000 <= s.grid.num_nodes <= 14000

    def test_tsv_dimensions(self):
        d = TsvDesign()
        boxes = d.tsv_boxes()
        assert boxes[0].size[0] == pytest.approx(um(5.0))
        assert boxes[0].size[2] == pytest.approx(um(20.0))
        # Edge-to-edge pitch of 10 um.
        assert boxes[1].lo[0] - boxes[0].hi[0] == pytest.approx(um(10.0))

    def test_wires_have_paper_dimensions(self):
        d = TsvDesign()
        for box in d.wire_boxes().values():
            assert box.size[0] == pytest.approx(um(1.0))  # width
            assert box.size[2] == pytest.approx(um(2.0))  # height
