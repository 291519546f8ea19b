"""Structure: a grid plus material regions, contacts and doping.

The node-kind classification implements the FVM convention of the
coupled A-V solver:

* a node touching at least one **metal** cell is a *metal node* (it
  carries the metal current-continuity equation, or a Dirichlet value
  when its conductor is driven);
* otherwise, a node touching at least one **semiconductor** cell is a
  *semiconductor node* (it carries Gauss's law with free charge and the
  carrier unknowns n, p);
* every other node is an *insulator node* (plain Gauss's law).

Nodes touching both metal and semiconductor cells are **ohmic contact
nodes**: they are metal nodes for the potential and Dirichlet points for
the carriers (charge-neutral equilibrium, zero excess carriers in AC).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError, MaterialError
from repro.geometry.shapes import Box
from repro.materials.doping import DopingProfile
from repro.materials.material import (
    Material,
    MaterialKind,
    MaterialTable,
    Semiconductor,
)
from repro.mesh.grid import CartesianGrid


@dataclass(frozen=True)
class NodeKindTable:
    """Per-node boolean classification masks (flat node order)."""

    metal: np.ndarray
    semiconductor: np.ndarray
    insulator: np.ndarray
    ohmic_contact: np.ndarray

    @property
    def num_metal(self) -> int:
        return int(np.count_nonzero(self.metal))

    @property
    def num_semiconductor(self) -> int:
        return int(np.count_nonzero(self.semiconductor))

    @property
    def num_insulator(self) -> int:
        return int(np.count_nonzero(self.insulator))


class Structure:
    """Material regions and ports on a Cartesian grid.

    Parameters
    ----------
    grid:
        The computational grid; material boxes should align with grid
        lines (use :func:`repro.mesh.refine.axis_from_breakpoints`).
    background:
        Material filling every cell not claimed by a box (usually an
        insulator).
    """

    def __init__(self, grid: CartesianGrid, background: Material):
        self.grid = grid
        self.materials = MaterialTable()
        background_id = self.materials.add(background)
        if background_id != 0:
            raise GeometryError("background material must be added first")
        self.cell_materials = np.zeros(grid.num_cells, dtype=int)
        self.contacts: dict = {}
        self.doping: DopingProfile = None
        self.regions: list = []  # (material name, Box) in paint order
        self._node_kinds = None
        self._derived = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_box(self, material: Material, box: Box,
                tol: float = None) -> int:
        """Paint ``box`` with ``material`` (later boxes override earlier).

        Returns the number of cells painted; raises if the box covers no
        cells (almost always a units or alignment mistake).
        """
        material_id = self.materials.add(material)
        # Dropped before the check below: the table may have grown
        # even when the box paints nothing.
        self._node_kinds = None
        self._derived = {}
        if tol is None:
            tol = 1e-9 * max(*box.size)
        cell_ids = self.grid.cells_in_box(box.lo, box.hi, tol=tol)
        if cell_ids.size == 0:
            raise GeometryError(
                f"box {box.lo}..{box.hi} covers no cells; check units and "
                f"grid alignment")
        self.cell_materials[cell_ids] = material_id
        self.regions.append((material.name, box))
        return int(cell_ids.size)

    def set_doping(self, profile: DopingProfile) -> None:
        """Attach the net-doping profile for all semiconductor regions."""
        self.doping = profile
        self._derived = {}

    def add_contact(self, name: str, node_ids) -> None:
        """Register a named port as an explicit node set."""
        node_ids = np.unique(np.asarray(node_ids, dtype=int))
        if node_ids.size == 0:
            raise GeometryError(f"contact {name!r} has no nodes")
        if np.any(node_ids < 0) or np.any(node_ids >= self.grid.num_nodes):
            raise GeometryError(f"contact {name!r} has out-of-range nodes")
        if name in self.contacts:
            raise GeometryError(f"contact {name!r} already defined")
        self.contacts[name] = node_ids
        self._derived = {}

    def add_contact_on_box_face(self, name: str, box: Box, face: str) -> None:
        """Register the grid nodes lying on one face of ``box``."""
        extent = max(*box.size)
        face_region = box.face_box(face, thickness=1e-9 * extent)
        node_ids = self.grid.nodes_in_box(face_region.lo, face_region.hi)
        if node_ids.size == 0:
            raise GeometryError(
                f"no nodes found on face {face!r} of box {box.lo}..{box.hi}")
        self.add_contact(name, node_ids)

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    def cell_kind_masks(self):
        """Per-cell boolean masks ``(metal, semiconductor, insulator)``.

        Read-only arrays, computed once per layout (:meth:`derived`).
        """
        def compute():
            kinds = np.array([m.kind for m in self.materials.materials])
            cell_kinds = kinds[self.cell_materials]
            masks = tuple(cell_kinds == kind for kind in (
                MaterialKind.METAL, MaterialKind.SEMICONDUCTOR,
                MaterialKind.INSULATOR))
            for mask in masks:
                mask.setflags(write=False)
            return masks

        return self.derived("cell_kind_masks", compute)

    def _scatter_cells_to_nodes(self, cell_mask: np.ndarray) -> np.ndarray:
        """True for nodes touching at least one cell where the mask holds."""
        grid = self.grid
        ncx, ncy, ncz = grid.cell_shape
        mask_3d = np.transpose(
            cell_mask.reshape(ncz, ncy, ncx), (2, 1, 0))
        node_mask = np.zeros(grid.shape, dtype=bool)
        for di in (0, 1):
            for dj in (0, 1):
                for dk in (0, 1):
                    node_mask[di:ncx + di, dj:ncy + dj,
                              dk:ncz + dk] |= mask_3d
        return grid.flat_field(node_mask)

    def node_kinds(self) -> NodeKindTable:
        """Classify every node; cached until the structure changes."""
        if self._node_kinds is None:
            metal_cells, semi_cells, _ = self.cell_kind_masks()
            touches_metal = self._scatter_cells_to_nodes(metal_cells)
            touches_semi = self._scatter_cells_to_nodes(semi_cells)
            metal = touches_metal
            semiconductor = touches_semi & ~touches_metal
            insulator = ~touches_metal & ~touches_semi
            ohmic = touches_metal & touches_semi
            self._node_kinds = NodeKindTable(
                metal=metal,
                semiconductor=semiconductor,
                insulator=insulator,
                ohmic_contact=ohmic,
            )
        return self._node_kinds

    def derived(self, key: str, compute):
        """``compute()``, cached under ``key`` until the structure
        changes.

        For data derived from the structure alone, such as
        :meth:`cell_kind_masks`, :meth:`fingerprint` and the conductor
        labels of :mod:`repro.extraction.capacitance`: computed once
        per structure instead of once per sample, and dropped by every
        mutator (:meth:`add_box`, :meth:`add_contact`,
        :meth:`set_doping`).  The cache lives on the structure, so it
        dies with it.
        """
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def fingerprint(self) -> str:
        """SHA-256 hex digest of everything a solver reads from the
        structure.

        It covers the grid axes, the per-cell material ids, the
        material table's entries, the contacts (names and node ids, in
        definition order) and the net doping at every node, which is
        all a solver reads of the doping profile.  Structures built
        alike share a fingerprint, so the process-level nominal cache
        of :mod:`repro.solver.avsolver` keys on it.  It is computed
        once per structure (:meth:`derived`), and every mutator drops
        it; assigning to the attributes directly bypasses that.
        """
        def compute():
            digest = hashlib.sha256()

            def add(array):
                array = np.ascontiguousarray(array)
                digest.update(f"{array.dtype.str}{array.shape}".encode())
                digest.update(array.tobytes())

            for axis in (self.grid.xs, self.grid.ys, self.grid.zs):
                add(axis)
            add(self.cell_materials)
            # Frozen dataclasses: the repr names the class and every
            # field, each float in its round-trip form.
            digest.update(repr(self.materials.materials).encode())
            for name, node_ids in self.contacts.items():
                digest.update(repr(name).encode())
                add(node_ids)
            add(self.net_doping_at_nodes())
            return digest.hexdigest()

        return self.derived("fingerprint", compute)

    def semiconductor_node_ids(self) -> np.ndarray:
        """Flat ids of nodes carrying carrier unknowns (incl. contacts)."""
        kinds = self.node_kinds()
        return np.nonzero(kinds.semiconductor | kinds.ohmic_contact)[0]

    def primary_semiconductor(self) -> Semiconductor:
        """The semiconductor material of the structure.

        The paper's structures have a single semiconductor region type;
        raises when there is none or more than one.
        """
        semis = [m for m in self.materials.materials
                 if isinstance(m, Semiconductor)]
        if not semis:
            raise MaterialError("structure has no semiconductor material")
        if len({m.name for m in semis}) > 1:
            raise MaterialError(
                "structure has multiple semiconductor materials; "
                "query repro.materials directly")
        return semis[0]

    def net_doping_at_nodes(self) -> np.ndarray:
        """Net doping [1/m^3] at every node (zero outside semiconductors).

        Uses the attached :class:`DopingProfile` when present, otherwise
        the uniform background doping of the semiconductor material.
        """
        values = np.zeros(self.grid.num_nodes, dtype=float)
        kinds = self.node_kinds()
        semi_mask = kinds.semiconductor | kinds.ohmic_contact
        if not np.any(semi_mask):
            return values
        coords = self.grid.node_coords()
        if self.doping is not None:
            all_values = self.doping.net_doping(coords)
            values[semi_mask] = all_values[semi_mask]
        else:
            material = self.primary_semiconductor()
            values[semi_mask] = material.net_doping
        return values

    def contact_node_ids(self, name: str) -> np.ndarray:
        try:
            return self.contacts[name]
        except KeyError as exc:
            raise GeometryError(f"no contact named {name!r}; defined: "
                                f"{sorted(self.contacts)}") from exc

    def summary(self) -> str:
        """One-line inventory used by examples and benchmarks."""
        kinds = self.node_kinds()
        return (f"{self.grid!r}; materials="
                f"{[m.name for m in self.materials.materials]}; "
                f"metal nodes={kinds.num_metal}, "
                f"semiconductor nodes={kinds.num_semiconductor}, "
                f"insulator nodes={kinds.num_insulator}, "
                f"contacts={sorted(self.contacts)}")
