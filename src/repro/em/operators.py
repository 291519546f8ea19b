"""Material-weighted FVM operators.

The dual face pierced by a link is shared by up to four cells of
possibly different materials (metal / insulator / semiconductor).  The
flux through the face is assembled per quadrant: each adjacent cell
contributes its own coefficient times its quarter of the dual area.
This is how the hybrid-material coupling of the paper's eq. (1) is
realized on the Cartesian mesh.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import MaterialError
from repro.geometry.structure import Structure
from repro.mesh.dual import GridGeometry


def cell_property_array(structure: Structure, getter) -> np.ndarray:
    """Evaluate ``getter(material)`` for every cell.

    ``getter`` maps a :class:`~repro.materials.material.Material` to a
    scalar (possibly complex); the result is a per-cell array.
    """
    values = [getter(m) for m in structure.materials.materials]
    table = np.asarray(values)
    if table.ndim != 1:
        raise MaterialError("getter must return a scalar per material")
    return table[structure.cell_materials]


def link_weighted_coefficients(geometry: GridGeometry,
                               cell_values: np.ndarray) -> np.ndarray:
    """Quadrant-averaged coefficient times dual area, per link.

    Returns ``sum_q c_cell(q) * quad_area_q`` with units
    ``[c] * m^2``; dividing by the link length gives the link
    conductance-like coefficient ``c_l A_l / L_l`` used in the nodal
    balance equations.  Missing quadrants (domain boundary) contribute
    nothing, which *is* the natural (zero-flux) boundary condition.
    """
    cell_values = np.asarray(cell_values)
    cells = geometry.links.cells
    safe = np.clip(cells, 0, None)
    vals = cell_values[safe]
    vals = np.where(cells >= 0, vals, 0.0)
    return (vals * geometry.link_quadrant_areas).sum(axis=1)


def link_material_areas(geometry: GridGeometry,
                        cell_mask: np.ndarray) -> np.ndarray:
    """Dual-face area restricted to cells where ``cell_mask`` holds.

    Used for carrier fluxes, which only flow through the semiconductor
    part of a dual face.
    """
    cell_mask = np.asarray(cell_mask, dtype=bool)
    cells = geometry.links.cells
    safe = np.clip(cells, 0, None)
    inside = cell_mask[safe] & (cells >= 0)
    return np.where(inside, geometry.link_quadrant_areas, 0.0).sum(axis=1)


def laplacian_entries(geometry: GridGeometry,
                      link_conductance: np.ndarray) -> tuple:
    """COO ``(rows, cols, data)`` of :func:`scalar_laplacian`: four
    entries per link, duplicates unsummed."""
    link_conductance = np.asarray(link_conductance)
    links = geometry.links
    a = links.node_a
    b = links.node_b
    rows = np.concatenate([a, a, b, b])
    cols = np.concatenate([b, a, a, b])
    data = np.concatenate([link_conductance, -link_conductance,
                           link_conductance, -link_conductance])
    return rows, cols, data


def scalar_laplacian(geometry: GridGeometry,
                     link_conductance: np.ndarray) -> sp.csr_matrix:
    """Assemble ``(N, N)`` nodal balance matrix from link conductances.

    Row ``i``: ``sum_l g_l (V_j - V_i)`` — the discrete
    ``div(c grad V)`` integrated over the dual cell of node ``i``.
    ``link_conductance`` is ``c_l A_l / L_l`` per link (real or
    complex).
    """
    rows, cols, data = laplacian_entries(geometry, link_conductance)
    n = geometry.num_nodes
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))
