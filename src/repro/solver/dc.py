"""DC operating point: the nonlinear-Poisson thermal-equilibrium solve.

The paper's structures are passive (no DC bias), so the operating point
is thermal equilibrium: carrier densities follow the Boltzmann relations
``n = ni exp(V/VT)``, ``p = ni exp(-V/VT)`` and the potential solves the
nonlinear Poisson equation

    div(eps grad V) + q (p(V) - n(V) + N_net) = 0

with ohmic metal-semiconductor contacts pinned at the charge-neutral
equilibrium potential.  The damped Newton-Raphson here is the nonlinear
solve of the paper's eq. (8) specialized to zero bias; every stochastic
sample re-runs it because the RDF perturbation changes ``N_net`` and the
geometric perturbation changes the FVM coefficients.  Those changes are
small, so a perturbed sample can iterate through the *nominal* sample's
converged Jacobian factor (a chord iteration, ``reference=``) instead
of factorizing its own at every step.  The perturbations never change
the mesh topology either, so the samples also share the nominal's
sparsity pattern of the Laplacian (``patterns=``) and scatter only
their values into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.constants import Q
from repro.em.operators import (
    cell_property_array,
    laplacian_entries,
    link_weighted_coefficients,
)
from repro.errors import MaterialError
from repro.geometry.structure import Structure
from repro.materials.doping import DopingProfile
from repro.materials.physics import (
    equilibrium_carriers,
    equilibrium_potential,
)
from repro.materials.material import Semiconductor
from repro.mesh.dual import GridGeometry, node_masked_volumes
from repro.solver.linear import pattern_blocks
from repro.solver.newton import NewtonOptions, damped_newton

#: The key of the Laplacian's entry in a ``patterns`` mapping: its
#: pinned set, every metal node, is fixed by the structure.
_DC_KEY = "laplacian"


@dataclass
class EquilibriumState:
    """The DC operating point the AC system linearizes around.

    All nodal arrays are in flat node order; carrier arrays are zero
    outside the carrier (semiconductor + ohmic-contact) node set.
    ``jacobian`` assembles the free-node DC Jacobian at the converged
    potential on call (``None`` without a semiconductor); its factor is
    the ``reference`` a chord solve of a nearby sample iterates with.
    """

    potential: np.ndarray
    n0: np.ndarray
    p0: np.ndarray
    net_doping: np.ndarray
    carrier_mask: np.ndarray
    semi_node_volumes: np.ndarray
    vt: float
    ni: float
    iterations: int
    jacobian: callable = None

    @property
    def has_semiconductor(self) -> bool:
        return bool(np.any(self.carrier_mask))


def node_net_doping(structure: Structure,
                    doping_profile: DopingProfile = None) -> np.ndarray:
    """Net doping at every node, honouring an optional profile override.

    The override is how one RDF sample enters a deterministic solve: the
    stochastic driver passes the perturbed
    :class:`~repro.materials.doping.NodePerturbedDoping`.
    """
    if doping_profile is None:
        return structure.net_doping_at_nodes()
    kinds = structure.node_kinds()
    mask = kinds.semiconductor | kinds.ohmic_contact
    values = np.zeros(structure.grid.num_nodes, dtype=float)
    if np.any(mask):
        coords = structure.grid.node_coords()
        values[mask] = doping_profile.net_doping(coords)[mask]
    return values


def permittivity_laplacian(structure: Structure,
                           geometry: GridGeometry) -> tuple:
    """COO ``(rows, cols, vals)`` of the permittivity Laplacian
    ``div(eps grad V)`` on ``geometry`` (duplicates unsummed)."""
    eps_cells = cell_property_array(structure, lambda m: m.permittivity)
    g_eps = (link_weighted_coefficients(geometry, eps_cells)
             / geometry.link_lengths)
    return laplacian_entries(geometry, g_eps)


def restricted_laplacian(structure: Structure, geometry: GridGeometry,
                         patterns=None) -> tuple:
    """``(lap_ff, lap_fd)``: the permittivity Laplacian's rows at the
    free (non-metal) nodes, restricted to the free columns and to the
    pinned metal columns.

    The restriction scatters the Laplacian's values into the sparsity
    pattern entered in ``patterns`` (see
    :func:`~repro.solver.linear.pattern_blocks`), building it when the
    mapping has none for this COO structure.
    """
    rows, cols, vals = permittivity_laplacian(structure, geometry)
    metal = structure.node_kinds().metal
    num_nodes = structure.grid.num_nodes
    pattern, block, coupling = pattern_blocks(
        {} if patterns is None else patterns, _DC_KEY, rows, cols,
        (num_nodes, num_nodes), np.nonzero(~metal)[0],
        np.nonzero(metal)[0], "dc")
    data = pattern.data(vals)
    return block.matrix(data), coupling.matrix(data)


def solve_equilibrium(structure: Structure, geometry: GridGeometry,
                      doping_profile: DopingProfile = None,
                      newton_options: NewtonOptions = None,
                      reference=None, patterns=None) -> EquilibriumState:
    """Solve the zero-bias operating point on (possibly perturbed)
    ``geometry``.

    ``reference`` is an optional factor of a nearby sample's converged
    Jacobian (see :func:`~repro.solver.newton.damped_newton`); without
    it every Newton step factorizes.  ``patterns`` is an optional
    mapping shared by the samples of one structure (see
    :func:`~repro.solver.linear.pattern_blocks`): the first solve
    enters the Laplacian's sparsity pattern, and every later solve
    whose COO structure matches scatters its values into it.  Returns
    a trivial all-zero state when the structure contains no
    semiconductor (the capacitance-only fast path).
    """
    grid = structure.grid
    kinds = structure.node_kinds()
    carrier_mask = kinds.semiconductor | kinds.ohmic_contact
    num_nodes = grid.num_nodes

    if not np.any(carrier_mask):
        zeros = np.zeros(num_nodes)
        return EquilibriumState(
            potential=zeros, n0=zeros.copy(), p0=zeros.copy(),
            net_doping=zeros.copy(), carrier_mask=carrier_mask,
            semi_node_volumes=zeros.copy(),
            vt=0.0, ni=0.0, iterations=0)

    material = structure.primary_semiconductor()
    if not isinstance(material, Semiconductor):
        raise MaterialError("primary semiconductor lookup failed")
    from repro.constants import thermal_voltage
    vt = thermal_voltage(material.temperature)
    ni = material.ni

    net_doping = node_net_doping(structure, doping_profile)

    lap_ff, lap_fd = restricted_laplacian(structure, geometry, patterns)

    _, semi_cells, _ = structure.cell_kind_masks()
    semi_volumes = node_masked_volumes(geometry, semi_cells)

    # Dirichlet: all metal nodes.  Ohmic contacts sit at the local
    # charge-neutral equilibrium potential; isolated metals at 0.
    dirichlet_mask = kinds.metal
    dirichlet_values = np.zeros(num_nodes)
    ohmic = kinds.ohmic_contact
    dirichlet_values[ohmic] = equilibrium_potential(
        net_doping[ohmic], ni, vt)

    free = ~dirichlet_mask
    rhs_dirichlet = lap_fd @ dirichlet_values[dirichlet_mask]

    carrier_free = carrier_mask[free]
    doping_free = net_doping[free]
    volumes_free = semi_volumes[free]

    def residual_jacobian(v_free):
        residual = lap_ff @ v_free + rhs_dirichlet
        charge_slope = np.zeros_like(v_free)
        if np.any(carrier_free):
            n, p = equilibrium_carriers(v_free[carrier_free], ni, vt)
            rho = Q * (p - n + doping_free[carrier_free])
            residual = residual.copy()
            residual[carrier_free] += rho * volumes_free[carrier_free]
            charge_slope[carrier_free] = (-Q * (n + p) / vt
                                          * volumes_free[carrier_free])
        # Assembled lazily: a chord step never needs it.
        return residual, lambda: lap_ff + sp.diags(charge_slope)

    if newton_options is None:
        # Potential updates capped at ~40 thermal voltages: large enough
        # to cross a junction in a few steps, small enough to stay on
        # the Boltzmann exponential's representable range.
        newton_options = NewtonOptions(max_iterations=60,
                                       update_tolerance=1e-10,
                                       max_step=1.0)

    v0_free = np.where(carrier_free,
                       equilibrium_potential(doping_free, ni, vt), 0.0)
    v_free, iterations = damped_newton(residual_jacobian, v0_free,
                                       newton_options, reference=reference)

    potential = dirichlet_values.copy()
    potential[free] = v_free
    n0 = np.zeros(num_nodes)
    p0 = np.zeros(num_nodes)
    n0[carrier_mask], p0[carrier_mask] = equilibrium_carriers(
        potential[carrier_mask], ni, vt)
    return EquilibriumState(
        potential=potential, n0=n0, p0=p0, net_doping=net_doping,
        carrier_mask=carrier_mask, semi_node_volumes=semi_volumes,
        vt=vt, ni=ni, iterations=iterations,
        jacobian=residual_jacobian(v_free)[1])
