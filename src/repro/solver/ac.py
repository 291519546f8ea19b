"""Frequency-domain coupled EM-semiconductor system.

This is the discrete form of the paper's equations (1)-(2) linearized
around the DC operating point — exactly the Jacobian structure of
eq. (8):

* **metal nodes** carry total-current continuity: conduction +
  displacement current through every dual-face quadrant, plus the
  carrier currents through semiconductor quadrants (the
  ``dF/d{p,n}`` coupling blocks);
* **semiconductor / insulator nodes** carry Gauss's law with the free
  AC charge ``q (dp - dn)`` weighted by the semiconductor share of the
  dual cell;
* **free semiconductor nodes** carry the linearized electron / hole
  continuity equations with Scharfetter-Gummel fluxes, carrier storage
  ``j w dn`` and SRH recombination;
* **ohmic contact nodes** (metal touching semiconductor) pin the AC
  excess carriers to zero.

All fluxes follow the *outflow* convention (see
:mod:`repro.semiconductor.scharfetter_gummel` for the link-oriented
flux definitions).  The optional ``link_emf`` argument adds the
``j w A`` induction voltage of the full-wave mode to every link
(see :mod:`repro.solver.ampere`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.constants import Q
from repro.em.operators import (
    cell_property_array,
    link_material_areas,
    link_weighted_coefficients,
)
from repro.errors import ExtractionError, GeometryError
from repro.geometry.structure import Structure
from repro.materials.physics import srh_derivatives
from repro.mesh.dual import GridGeometry, node_masked_volumes
from repro.semiconductor.scharfetter_gummel import (
    electron_flux_linearization,
    hole_flux_linearization,
)
from repro.solver.backends import resolve_backend, solve_chords
from repro.solver.dc import EquilibriumState
from repro.solver.linear import pattern_blocks


@dataclass
class ACSolution:
    """Result of one frequency-domain solve.

    Nodal phasors in flat node order; ``n`` and ``p`` are the AC excess
    carrier densities (zero outside the semiconductor).
    """

    structure: Structure
    geometry: GridGeometry
    equilibrium: EquilibriumState
    omega: float
    excitations: dict
    potential: np.ndarray
    n: np.ndarray
    p: np.ndarray
    system: "ACSystem"
    vector_potential: np.ndarray = None

    def link_total_current(self) -> np.ndarray:
        """Total AC current through each link's dual face [A], oriented
        from ``node_a`` to ``node_b`` (conduction + displacement +
        carrier currents)."""
        return self.system.link_total_current(self)

    def link_dielectric_flux(self) -> np.ndarray:
        """Electric (D-field) flux through each dual face [C], oriented
        a -> b; the Gauss-law flux used for charge integration."""
        return self.system.link_dielectric_flux(self)

    def potential_field(self) -> np.ndarray:
        """Potential reshaped to the ``(nx, ny, nz)`` node lattice."""
        return self.structure.grid.unflatten_field(self.potential)


@dataclass
class _RestrictedSystem:
    """The solve-ready restriction for one set of pinned contacts.

    Everything here depends only on *which* contacts are pinned (the
    Dirichlet node set), not on their voltages, so one instance serves
    every excitation — and every right-hand side — over that set.
    """

    unknown: np.ndarray
    free_v: np.ndarray
    free_carriers: np.ndarray
    dirichlet_ids: np.ndarray
    coupling: sp.csr_matrix
    #: Solve-ready factor from the system's backend (a SparseFactor,
    #: or a chord factor when the system has a reference for the set
    #: or the "krylov" backend has a seed for it).
    factor: object


class ACSystem:
    """Assembles and solves the coupled system for one sample.

    Parameters
    ----------
    structure:
        Material layout (logical grid).
    geometry:
        FVM geometry, possibly from a perturbed grid sample.
    equilibrium:
        DC operating point matching the same doping sample.
    frequency:
        Excitation frequency [Hz].
    recombination:
        Include the SRH linearization (on by default).
    backend:
        Linear-solver backend designation (a name or a live
        :class:`~repro.solver.backends.SolverBackend`); default the
        direct ``"lu"`` path.  Passing one *live* backend instance to
        several systems (as :func:`~repro.solver.sweep.frequency_sweep`
        does) is what lets the ``"krylov"`` backend chord through a
        previous factorization.
    references:
        Optional mapping ``frozenset(contacts) -> factor`` of a nearby
        sample's restricted matrices (an
        :class:`~repro.solver.avsolver.AVSolver` hands every perturbed
        sample its nominal sample's).  A contact set found there is
        solved by a chord through that factor
        (:meth:`~repro.solver.backends.SolverBackend.chord`) instead of
        a factorization of its own; the mapping is read when the set
        is first solved.
    patterns:
        Optional mapping ``frozenset(contacts) -> (pattern, block,
        coupling)`` shared by the systems of one structure (see
        :func:`~repro.solver.linear.pattern_blocks`): an
        :class:`~repro.solver.avsolver.AVSolver` hands every sample its
        nominal's, and a frequency sweep one map to all frequencies.
        A contact set found there with this system's COO structure is
        restricted by scattering values into it; any other set builds
        its own entry and adds it unless the key is taken.  Without a
        mapping the system keeps its own.
    """

    def __init__(self, structure: Structure, geometry: GridGeometry,
                 equilibrium: EquilibriumState, frequency: float,
                 recombination: bool = True, backend=None,
                 references=None, patterns=None):
        if frequency <= 0.0:
            raise GeometryError(
                f"frequency must be positive, got {frequency}")
        self.structure = structure
        self.geometry = geometry
        self.equilibrium = equilibrium
        self.omega = 2.0 * np.pi * frequency
        self.recombination = recombination
        self._backend = resolve_backend(backend)
        # Restricted system + LU per *set* of pinned contacts: the
        # matrix restriction depends only on which contacts are pinned,
        # never on their voltages, so every excitation over the same
        # contact set shares one factorization.
        self._factor_cache = {}
        self._references = references if references is not None else {}
        self._patterns = patterns if patterns is not None else {}
        # The sparsity pattern this system's COO structure was checked
        # against (or built), once it restricted a contact set.
        self._pattern = None
        self._build_coefficients()
        # The 3N x 3N COO entries only feed restrictions: they are kept
        # until the first contact set is restricted (for a sample, the
        # only one) and assembled again for any later set.
        self._entries = self._assemble()

    # ------------------------------------------------------------------
    def _build_coefficients(self) -> None:
        structure = self.structure
        geometry = self.geometry
        omega = self.omega
        kinds = structure.node_kinds()
        self.kinds = kinds
        self.num_nodes = structure.grid.num_nodes

        eps_cells = cell_property_array(structure,
                                        lambda m: m.permittivity)
        sigma_cells = cell_property_array(structure, lambda m: m.sigma)
        lengths = geometry.link_lengths
        self.link_lengths = lengths
        self.g_eps = (link_weighted_coefficients(geometry, eps_cells)
                      / lengths)
        self.g_tot = (link_weighted_coefficients(
            geometry, sigma_cells + 1j * omega * eps_cells) / lengths)

        _, semi_cells, _ = structure.cell_kind_masks()
        self.semi_areas = link_material_areas(geometry, semi_cells)
        eq = self.equilibrium
        self.has_carriers = eq.has_semiconductor
        # The equilibrium computed the same volumes on the same geometry.
        self.semi_volumes = (eq.semi_node_volumes if self.has_carriers
                             else node_masked_volumes(geometry, semi_cells))
        links = geometry.links
        self.carrier_links = np.nonzero(self.semi_areas > 0.0)[0]
        if self.has_carriers and self.carrier_links.size:
            material = structure.primary_semiconductor()
            a = links.node_a[self.carrier_links]
            b = links.node_b[self.carrier_links]
            carrier_ok = eq.carrier_mask[a] & eq.carrier_mask[b]
            if not np.all(carrier_ok):
                raise GeometryError(
                    "link with semiconductor quadrants has an endpoint "
                    "without carrier data; node classification is "
                    "inconsistent")
            u0 = (eq.potential[b] - eq.potential[a]) / eq.vt
            lcl = lengths[self.carrier_links]
            self.lin_n = electron_flux_linearization(
                eq.n0[a], eq.n0[b], u0, material.mu_n, eq.vt, lcl)
            self.lin_p = hole_flux_linearization(
                eq.p0[a], eq.p0[b], u0, material.mu_p, eq.vt, lcl)
            if self.recombination:
                du_dn, du_dp = srh_derivatives(
                    eq.n0, eq.p0, eq.ni, material.tau_n, material.tau_p)
            else:
                du_dn = np.zeros(self.num_nodes)
                du_dp = np.zeros(self.num_nodes)
            self.du_dn = du_dn
            self.du_dp = du_dp
        else:
            self.lin_n = None
            self.lin_p = None
            self.du_dn = np.zeros(self.num_nodes)
            self.du_dp = np.zeros(self.num_nodes)

    # ------------------------------------------------------------------
    def _assemble(self) -> tuple:
        """The global (3N x 3N) matrix as COO ``(rows, cols, vals)``.

        Global unknown ids: ``V_i = i``, ``n_i = N + i``,
        ``p_i = 2N + i``.  Duplicates are summed, and the matrix
        restricted to the actual unknown set, at solve time through
        the contact set's sparsity pattern; the system keeps only the
        restrictions.
        """
        geometry = self.geometry
        links = geometry.links
        n_nodes = self.num_nodes
        a = links.node_a
        b = links.node_b
        metal = self.kinds.metal

        rows = []
        cols = []
        vals = []

        def add(r, c, v):
            rows.append(np.asarray(r))
            cols.append(np.asarray(c))
            vals.append(np.asarray(v, dtype=complex))

        # --- V-V conduction / Gauss terms (row-dependent coefficient) --
        g_row_a = np.where(metal[a], self.g_tot, self.g_eps + 0j)
        g_row_b = np.where(metal[b], self.g_tot, self.g_eps + 0j)
        add(a, a, g_row_a)
        add(a, b, -g_row_a)
        add(b, b, g_row_b)
        add(b, a, -g_row_b)

        eq = self.equilibrium
        cl = self.carrier_links
        if self.lin_n is not None and cl.size:
            ca_ = a[cl]
            cb_ = b[cl]
            area = self.semi_areas[cl]

            def add_flux_rows(row_ids, sign, lin, col_offset):
                """Outflow of a carrier flux into continuity rows.

                ``sign`` is +1 for rows at the a-endpoints, -1 at b.
                """
                add(row_ids, col_offset + ca_, sign * area * lin.coef_a)
                add(row_ids, col_offset + cb_, sign * area * lin.coef_b)
                add(row_ids, cb_, sign * area * lin.coef_dv)
                add(row_ids, ca_, -sign * area * lin.coef_dv)

            # Electron / hole continuity rows (at both link endpoints;
            # rows of Dirichlet carrier nodes are discarded at solve
            # time, so assembling them unconditionally is safe).
            add_flux_rows(n_nodes + ca_, +1.0, self.lin_n, n_nodes)
            add_flux_rows(n_nodes + cb_, -1.0, self.lin_n, n_nodes)
            add_flux_rows(2 * n_nodes + ca_, +1.0, self.lin_p,
                          2 * n_nodes)
            add_flux_rows(2 * n_nodes + cb_, -1.0, self.lin_p,
                          2 * n_nodes)

            # Carrier currents into *metal* (total-current) rows:
            # I_carrier = q (F_p - F_n) * A_semi, outflow convention.
            for row_ids, sign in ((ca_, +1.0), (cb_, -1.0)):
                row_metal = metal[row_ids]
                s = np.where(row_metal, sign, 0.0)
                add(row_ids, 2 * n_nodes + ca_,
                    s * Q * area * self.lin_p.coef_a)
                add(row_ids, 2 * n_nodes + cb_,
                    s * Q * area * self.lin_p.coef_b)
                add(row_ids, n_nodes + ca_,
                    -s * Q * area * self.lin_n.coef_a)
                add(row_ids, n_nodes + cb_,
                    -s * Q * area * self.lin_n.coef_b)
                dv_coef = Q * area * (self.lin_p.coef_dv
                                      - self.lin_n.coef_dv)
                add(row_ids, cb_, s * dv_coef)
                add(row_ids, ca_, -s * dv_coef)

        # --- nodal (diagonal-ish) terms -------------------------------
        carrier_nodes = np.nonzero(eq.carrier_mask)[0]
        if carrier_nodes.size:
            vol = self.semi_volumes[carrier_nodes]
            jw = 1j * self.omega
            # Gauss rows of non-metal carrier nodes: -q(dp - dn) vol.
            gauss_nodes = carrier_nodes[~metal[carrier_nodes]]
            gvol = self.semi_volumes[gauss_nodes]
            add(gauss_nodes, n_nodes + gauss_nodes, Q * gvol)
            add(gauss_nodes, 2 * n_nodes + gauss_nodes, -Q * gvol)
            # Carrier storage + recombination.
            add(n_nodes + carrier_nodes, n_nodes + carrier_nodes,
                (jw + self.du_dn[carrier_nodes]) * vol)
            add(n_nodes + carrier_nodes, 2 * n_nodes + carrier_nodes,
                self.du_dp[carrier_nodes] * vol)
            add(2 * n_nodes + carrier_nodes, 2 * n_nodes + carrier_nodes,
                (jw + self.du_dp[carrier_nodes]) * vol)
            add(2 * n_nodes + carrier_nodes, n_nodes + carrier_nodes,
                self.du_dn[carrier_nodes] * vol)

        return (np.concatenate([np.ravel(r) for r in rows]),
                np.concatenate([np.ravel(c) for c in cols]),
                np.concatenate([np.ravel(v) for v in vals]))

    # ------------------------------------------------------------------
    def _partition(self, contacts):
        """Split global ids into unknown and Dirichlet sets.

        Depends only on *which* contacts are pinned; the pinned
        voltages live in :meth:`_dirichlet_values`.
        """
        dirichlet_v = np.zeros(self.num_nodes, dtype=bool)
        for contact in contacts:
            dirichlet_v[self.structure.contact_node_ids(contact)] = True
        if not np.any(dirichlet_v):
            raise GeometryError(
                "at least one contact excitation is required")

        free_v = np.nonzero(~dirichlet_v)[0]
        free_carriers = np.nonzero(self.kinds.semiconductor)[0]
        unknown = np.concatenate([
            free_v,
            self.num_nodes + free_carriers,
            2 * self.num_nodes + free_carriers,
        ])
        dirichlet_ids = np.nonzero(dirichlet_v)[0]
        return unknown, free_v, free_carriers, dirichlet_ids

    def _restricted_system(self, excitations) -> "_RestrictedSystem":
        """Partition + restricted matrices + LU for a pinned-contact set.

        Cached under ``frozenset(excitations)``: every drive over the
        same contact set — any voltages, any number of right-hand
        sides — reuses the same factorization (or, with a reference
        for the set, the same chord factor).
        """
        key = frozenset(excitations)
        cached = self._factor_cache.get(key)
        if cached is not None:
            return cached
        unknown, free_v, free_carriers, dirichlet_ids = \
            self._partition(excitations)
        entries = self._entries
        if entries is None:
            entries = self._assemble()
        self._entries = None
        rows, cols, vals = entries
        size = 3 * self.num_nodes
        self._pattern, block, coupling = pattern_blocks(
            self._patterns, key, rows, cols, (size, size), unknown,
            dirichlet_ids, "ac", self._pattern)
        data = self._pattern.data(vals)
        restricted = _RestrictedSystem(
            unknown=unknown,
            free_v=free_v,
            free_carriers=free_carriers,
            dirichlet_ids=dirichlet_ids,
            coupling=coupling.matrix(data),
            # The reuse key names the pinned-contact set: across
            # frequencies or samples, the same set yields the same
            # restriction pattern, so a shared backend instance can
            # chord this solve through its previous factorization.
            # A reference for the set makes the backend chord through
            # it; without one this is a plain factorization.
            factor=self._backend.chord(
                block.matrix(data), self._references.get(key), key=key),
        )
        self._factor_cache[key] = restricted
        return restricted

    def _dirichlet_values(self, excitations: dict,
                          dirichlet_ids: np.ndarray) -> np.ndarray:
        """Pinned voltages in ``dirichlet_ids`` order."""
        values = np.zeros(self.num_nodes, dtype=complex)
        for contact, voltage in excitations.items():
            values[self.structure.contact_node_ids(contact)] = voltage
        return values[dirichlet_ids]

    def _emf_rhs(self, link_emf: np.ndarray) -> np.ndarray:
        """Global RHS from induction EMF on links (full-wave mode).

        ``link_emf`` is ``j w A_l L_l`` added to every link voltage
        ``V_b - V_a``; every matrix term that multiplies that pattern
        contributes ``coef * emf`` moved to the right-hand side.
        """
        geometry = self.geometry
        links = geometry.links
        n_nodes = self.num_nodes
        a = links.node_a
        b = links.node_b
        metal = self.kinds.metal
        rhs = np.zeros(3 * n_nodes, dtype=complex)

        g_row_a = np.where(metal[a], self.g_tot, self.g_eps + 0j)
        g_row_b = np.where(metal[b], self.g_tot, self.g_eps + 0j)
        np.add.at(rhs, a, g_row_a * link_emf)
        np.add.at(rhs, b, -g_row_b * link_emf)

        cl = self.carrier_links
        if self.lin_n is not None and cl.size:
            ca_ = a[cl]
            cb_ = b[cl]
            area = self.semi_areas[cl]
            emf = link_emf[cl]
            np.add.at(rhs, n_nodes + ca_,
                      -area * self.lin_n.coef_dv * emf)
            np.add.at(rhs, n_nodes + cb_,
                      area * self.lin_n.coef_dv * emf)
            np.add.at(rhs, 2 * n_nodes + ca_,
                      -area * self.lin_p.coef_dv * emf)
            np.add.at(rhs, 2 * n_nodes + cb_,
                      area * self.lin_p.coef_dv * emf)
            dv_coef = Q * area * (self.lin_p.coef_dv - self.lin_n.coef_dv)
            metal_a = metal[ca_]
            metal_b = metal[cb_]
            np.add.at(rhs, ca_, np.where(metal_a, -dv_coef * emf, 0.0))
            np.add.at(rhs, cb_, np.where(metal_b, dv_coef * emf, 0.0))
        return rhs

    # ------------------------------------------------------------------
    def solve(self, excitations: dict,
              link_emf: np.ndarray = None) -> ACSolution:
        """Solve for one set of contact voltages.

        The restriction and LU factorization are cached per pinned
        contact set, so repeated solves over the same contacts (other
        voltages, full-wave correction passes, per-port drives) skip
        straight to the triangular solves.

        Parameters
        ----------
        excitations:
            Mapping ``contact name -> complex voltage phasor``; every
            named contact is pinned, everything else floats.
        link_emf:
            Optional per-link induction voltage ``j w A_l L_l`` from a
            previous Ampere pass (full-wave correction).
        """
        factor, rhs, finish = self._drive(excitations, link_emf)
        return finish(factor.solve(rhs))

    def solve_ports(self, ports, drive: complex = 1.0) -> list:
        """Solve every unit port drive with one shared factorization.

        Port ``j``'s excitation pins port ``j`` at ``drive`` volts and
        every other port at 0 — the standard admittance /
        Maxwell-capacitance drive pattern.  All ``P`` right-hand sides
        go through a single multi-RHS triangular solve against the one
        LU of the shared pinned-contact set, so the cost is one
        factorization plus ``P`` cheap back-substitutions instead of
        ``P`` factorizations.

        Parameters
        ----------
        ports:
            Ordered contact names; all of them are pinned in every
            excitation.
        drive:
            Voltage phasor of the driven port (default 1 V).

        Returns
        -------
        list
            ``P`` :class:`ACSolution` objects, one per driven port, in
            ``ports`` order; each is identical to what ``solve`` would
            return for the corresponding single excitation.
        """
        factor, rhs, finish = self._port_drives(ports, drive)
        return finish(factor.solve(rhs))

    def _drive(self, excitations: dict, link_emf=None):
        """The right-hand-side half of :meth:`solve`.

        Returns ``(factor, rhs, finish)``: the contact set's factor,
        the restricted right-hand side and ``finish(x)``, the solutions
        half, which turns the factor's answer into the
        :class:`ACSolution`.
        """
        restricted = self._restricted_system(excitations)
        dirichlet_vals = self._dirichlet_values(
            excitations, restricted.dirichlet_ids)
        rhs = -(restricted.coupling @ dirichlet_vals)
        if link_emf is not None:
            link_emf = np.asarray(link_emf, dtype=complex)
            if link_emf.shape != (self.geometry.num_links,):
                raise ExtractionError(
                    f"link_emf must have shape "
                    f"({self.geometry.num_links},)")
            rhs = rhs + self._emf_rhs(link_emf)[restricted.unknown]
        excitations = dict(excitations)
        return restricted.factor, rhs, lambda x: self._make_solution(
            restricted, dirichlet_vals, x, excitations, link_emf)

    def _port_drives(self, ports, drive: complex = 1.0):
        """The right-hand-side half of :meth:`solve_ports`, shaped
        like :meth:`_drive`'s: ``finish(x)`` returns the ``P``
        solutions."""
        ports = list(ports)
        if not ports:
            raise GeometryError("at least one port is required")
        if len(set(ports)) != len(ports):
            raise GeometryError(f"duplicate port names in {ports}")
        restricted = self._restricted_system(ports)
        port_excitations = [
            {name: (drive if name == driven else 0.0) for name in ports}
            for driven in ports]
        values = np.column_stack([
            self._dirichlet_values(exc, restricted.dirichlet_ids)
            for exc in port_excitations])
        rhs = -(restricted.coupling @ values)
        return restricted.factor, rhs, lambda x: [
            self._make_solution(restricted, values[:, j], x[:, j],
                                port_excitations[j], None)
            for j in range(len(ports))]

    def _make_solution(self, restricted: _RestrictedSystem,
                       dirichlet_vals: np.ndarray, x: np.ndarray,
                       excitations: dict,
                       link_emf) -> ACSolution:
        """Scatter a restricted solution vector back to nodal arrays."""
        n_nodes = self.num_nodes
        free_v = restricted.free_v
        free_carriers = restricted.free_carriers
        potential = np.zeros(n_nodes, dtype=complex)
        potential[restricted.dirichlet_ids] = dirichlet_vals
        potential[free_v] = x[:free_v.size]
        n_ac = np.zeros(n_nodes, dtype=complex)
        p_ac = np.zeros(n_nodes, dtype=complex)
        n_ac[free_carriers] = x[free_v.size:free_v.size
                                + free_carriers.size]
        p_ac[free_carriers] = x[free_v.size + free_carriers.size:]
        solution = ACSolution(
            structure=self.structure,
            geometry=self.geometry,
            equilibrium=self.equilibrium,
            omega=self.omega,
            excitations=excitations,
            potential=potential,
            n=n_ac,
            p=p_ac,
            system=self,
        )
        solution._link_emf = link_emf
        return solution

    # ------------------------------------------------------------------
    # Post-processing helpers
    # ------------------------------------------------------------------
    def _link_voltage(self, solution: ACSolution) -> np.ndarray:
        """Per-link ``V_b - V_a`` including the induction EMF if any."""
        links = self.geometry.links
        dv = solution.potential[links.node_b] \
            - solution.potential[links.node_a]
        emf = getattr(solution, "_link_emf", None)
        if emf is not None:
            dv = dv + emf
        return dv

    def link_total_current(self, solution: ACSolution) -> np.ndarray:
        """Total current a -> b through each dual face [A]."""
        dv = self._link_voltage(solution)
        current = -self.g_tot * dv
        cl = self.carrier_links
        if self.lin_n is not None and cl.size:
            links = self.geometry.links
            a = links.node_a[cl]
            b = links.node_b[cl]
            dvc = dv[cl]
            f_n = (self.lin_n.coef_a * solution.n[a]
                   + self.lin_n.coef_b * solution.n[b]
                   + self.lin_n.coef_dv * dvc)
            f_p = (self.lin_p.coef_a * solution.p[a]
                   + self.lin_p.coef_b * solution.p[b]
                   + self.lin_p.coef_dv * dvc)
            current[cl] = current[cl] + Q * self.semi_areas[cl] * (f_p - f_n)
        return current

    def link_dielectric_flux(self, solution: ACSolution) -> np.ndarray:
        """Electric flux (D dot dS) a -> b through each dual face [C]."""
        return -self.g_eps * self._link_voltage(solution)


def solve_systems(systems, excitations: dict = None,
                  ports=None) -> list:
    """Solve one drive on many systems, their chords in lockstep.

    Returns, for every system in order, exactly what
    ``system.solve(excitations)`` — or, with ``ports``,
    ``system.solve_ports(ports)`` — returns.  Every system builds its
    restriction and right-hand side as those do; then one
    :func:`~repro.solver.backends.solve_chords` call solves them all,
    so the systems whose chords share a reference (the perturbed
    samples of one :class:`~repro.solver.avsolver.AVSolver`) pay one
    multi-RHS back-substitution per step between them.  ``systems``
    may be a generator: each system is restricted before the next is
    drawn, so only one system's unrestricted 3N x 3N COO entries are
    alive at a time.
    """
    drives = [system._drive(excitations) if ports is None
              else system._port_drives(ports) for system in systems]
    solved = solve_chords([factor for factor, _, _ in drives],
                          [rhs for _, rhs, _ in drives])
    return [finish(x) for (_, _, finish), x in zip(drives, solved)]
