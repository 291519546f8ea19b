"""Maxwell capacitance extraction by Gauss-flux charge integration.

Driving conductor ``j`` at 1 V with every other conductor grounded and
integrating the electric flux out of each conductor's wrapping dual
surface yields the Maxwell capacitance matrix column ``C_ij = Q_i``:
positive on the diagonal, negative off-diagonal — matching the sign
pattern of the paper's Table II.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import ExtractionError
from repro.geometry.structure import Structure
from repro.mesh.entities import LinkSet
from repro.solver.ac import ACSolution


def conductor_labels(structure: Structure, links: LinkSet) -> np.ndarray:
    """Label metal nodes by connected conductor.

    Returns a per-node int array: ``-1`` for non-metal nodes, otherwise
    a conductor component id.  Two metal nodes belong to the same
    conductor when a chain of links with metal endpoints joins them.
    """
    metal = structure.node_kinds().metal
    n = structure.grid.num_nodes
    # A link joins a conductor only when it runs along metal: both
    # endpoints metal AND at least one adjacent cell is metal.  Without
    # the cell condition a single coarse cell between two conductors
    # would merge them (both endpoints of the spanning link touch metal).
    metal_cells, _, _ = structure.cell_kind_masks()
    safe = np.clip(links.cells, 0, None)
    touches_metal_cell = np.any(metal_cells[safe] & (links.cells >= 0),
                                axis=1)
    both_metal = (metal[links.node_a] & metal[links.node_b]
                  & touches_metal_cell)
    a = links.node_a[both_metal]
    b = links.node_b[both_metal]
    adjacency = csr_matrix(
        (np.ones(a.size), (a, b)), shape=(n, n))
    num, labels = connected_components(adjacency, directed=False)
    out = np.full(n, -1, dtype=int)
    metal_ids = np.nonzero(metal)[0]
    # Re-label so conductor ids are dense over metal components only.
    raw = labels[metal_ids]
    _, dense = np.unique(raw, return_inverse=True)
    out[metal_ids] = dense
    return out


def _structure_labels(structure: Structure, links: LinkSet) -> np.ndarray:
    """:func:`conductor_labels`, computed once per structure.

    The labels depend on the structure and its grid's links only.  A
    :class:`LinkSet` depends on its grid's lattice shape alone, so
    every link set of that shape is the same, including one a solver
    shares between structures built alike, and the samples of a
    stochastic build share one read-only array
    (:meth:`~repro.geometry.structure.Structure.derived`).  Links of a
    lattice of another shape are labeled afresh.
    """
    if links.grid.shape != structure.grid.shape:
        return conductor_labels(structure, links)

    def compute():
        labels = conductor_labels(structure, links)
        labels.setflags(write=False)
        return labels

    return structure.derived("conductor_labels", compute)


def conductor_mask_for_contact(structure: Structure, links: LinkSet,
                               contact: str) -> np.ndarray:
    """Boolean mask of the conductor containing ``contact``."""
    return _contact_conductor_mask(
        structure, _structure_labels(structure, links), contact)


def _contact_conductor_mask(structure: Structure, labels: np.ndarray,
                            contact: str) -> np.ndarray:
    """Mask of ``contact``'s conductor under precomputed ``labels``."""
    ids = structure.contact_node_ids(contact)
    contact_labels = np.unique(labels[ids])
    contact_labels = contact_labels[contact_labels >= 0]
    if contact_labels.size == 0:
        raise ExtractionError(
            f"contact {contact!r} touches no metal nodes")
    if contact_labels.size > 1:
        raise ExtractionError(
            f"contact {contact!r} spans {contact_labels.size} distinct "
            f"conductors; split it into one contact per conductor")
    return labels == contact_labels[0]


def conductor_charge(solution: ACSolution,
                     conductor_mask: np.ndarray) -> complex:
    """Charge on a conductor from the outward electric flux [C]."""
    conductor_mask = np.asarray(conductor_mask, dtype=bool)
    links = solution.geometry.links
    flux = solution.link_dielectric_flux()
    a_in = conductor_mask[links.node_a] & ~conductor_mask[links.node_b]
    b_in = conductor_mask[links.node_b] & ~conductor_mask[links.node_a]
    if not np.any(a_in | b_in):
        raise ExtractionError("conductor has no surface links")
    return complex(flux[a_in].sum() - flux[b_in].sum())


def capacitance_column(solution: ACSolution, driven_contact: str,
                       contacts=None) -> dict:
    """One column of the Maxwell capacitance matrix [F].

    Parameters
    ----------
    solution:
        An AC solution where ``driven_contact`` was excited at some
        voltage and every other conductor grounded (0 V).
    driven_contact:
        The excited contact (its voltage normalizes the charges).
    contacts:
        Contact names to report; defaults to all structure contacts.

    Returns
    -------
    dict
        ``contact name -> C`` (complex; the real part is the
        capacitance reported in the paper's Table II).
    """
    structure = solution.structure
    links = solution.geometry.links
    drive = solution.excitations.get(driven_contact)
    if drive is None or drive == 0:
        raise ExtractionError(
            f"driven contact {driven_contact!r} must be excited at a "
            f"nonzero voltage in the solution")
    if contacts is None:
        contacts = sorted(structure.contacts)
    labels = _structure_labels(structure, links)
    column = {}
    for name in contacts:
        mask = _contact_conductor_mask(structure, labels, name)
        column[name] = conductor_charge(solution, mask) / drive
    return column
