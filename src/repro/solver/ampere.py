"""Vector-potential (Ampere) pass — the full-wave part of eq. (3).

The modified Ampere equation couples the magnetic vector potential A to
the total current computed by the V/n/p system:

    curl(1/mu curl A) = J_total,   J_total = (sigma + j w eps) E + J_carrier

Discretely, A lives on links as edge line-integrals [V s]; the curl-curl
operator is ``C^T diag(nu * dualLen_f / area_f) C`` with ``C`` the
metric-free circulation matrix.  The induced EMF ``j w A_e`` then feeds
back into every link voltage of the V/n/p system (see
:meth:`repro.solver.ac.ACSystem.solve`).

Two numerical realities of open-port A-V solvers are handled explicitly:

* the port currents make the discrete current field non-solenoidal at
  the driven contacts, so the right-hand side is Helmholtz-projected
  onto the divergence-free subspace before the solve (the irrotational
  component generates no magnetic field);
* the curl-curl nullspace (discrete gradients) is regularized with a
  small Tikhonov term — a numerical gauge fixing.

At the paper's 1 GHz and micrometre scales the induction correction is
parts-per-billion of the link voltages, so a single staggered A-pass
(quasi-static solve, Ampere solve, one corrected re-solve) is a
converged fixed-point iteration; this is the solver's ``full_wave``
mode.  Face metric factors use the nominal grid.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.constants import MU0
from repro.em.operators import cell_property_array
from repro.em.topology import FaceSet, curl_matrix
from repro.errors import ExtractionError
from repro.geometry.structure import Structure
from repro.mesh.dual import GridGeometry
from repro.solver.backends import resolve_backend


def _axis_spacings(axis_coords: np.ndarray) -> np.ndarray:
    return np.diff(axis_coords)


def _dual_half_lengths(axis_coords: np.ndarray) -> np.ndarray:
    """Dual segment length at every node plane along one axis."""
    d = np.diff(axis_coords)
    out = np.empty(axis_coords.size)
    out[0] = d[0] / 2.0
    out[-1] = d[-1] / 2.0
    out[1:-1] = (d[:-1] + d[1:]) / 2.0
    return out


def _flat(field_3d: np.ndarray) -> np.ndarray:
    return np.transpose(field_3d, (2, 1, 0)).ravel()


class AmpereSystem:
    """Curl-curl system for the vector potential on the nominal grid."""

    def __init__(self, structure: Structure, geometry: GridGeometry,
                 backend=None):
        self._backend = resolve_backend(backend)
        self.structure = structure
        self.geometry = geometry
        self.links = geometry.links
        self.faces = FaceSet(structure.grid)
        self.curl = curl_matrix(structure.grid, self.links, self.faces)
        self._build_face_factors()
        self._build_curl_curl()
        self._build_divergence()
        # Both operators are frequency- and excitation-independent, so
        # their LU factorizations are built once (lazily, see factors)
        # and reused by every staggered pass of a sweep or multi-port
        # study.
        self._projection_factor = None
        self._curl_curl_factor = None

    # ------------------------------------------------------------------
    def _build_face_factors(self) -> None:
        grid = self.structure.grid
        axes = (grid.xs, grid.ys, grid.zs)
        nu_cells = cell_property_array(
            self.structure, lambda m: 1.0 / (MU0 * m.mu_r))

        factors = []
        for axis in range(3):
            t1, t2 = [a for a in range(3) if a != axis]
            shape = self.faces.face_lattice_shape(axis)
            # Primal face area: product of the transverse cell spacings.
            idx = np.meshgrid(*[np.arange(n) for n in shape],
                              indexing="ij")
            d1 = _axis_spacings(axes[t1])[idx[t1]]
            d2 = _axis_spacings(axes[t2])[idx[t2]]
            area = d1 * d2
            dual_len = _dual_half_lengths(axes[axis])[idx[axis]]
            # Face reluctivity: mean of the two adjacent cells.
            adj = self.faces.face_adjacent_cells(axis)
            nu_vals = np.where(adj >= 0, nu_cells[np.clip(adj, 0, None)],
                               np.nan)
            nu_face = np.nanmean(nu_vals, axis=1)
            factors.append(nu_face * _flat(dual_len / area))
        self.face_factors = np.concatenate(factors)

    def _build_curl_curl(self) -> None:
        weight = sp.diags(self.face_factors)
        kmat = (self.curl.T @ weight @ self.curl).tocsr()
        diag_scale = float(np.mean(np.abs(kmat.diagonal())))
        if diag_scale == 0.0:
            raise ExtractionError("degenerate curl-curl operator")
        self.curl_curl = kmat
        # Tikhonov gauge fixing: 1e-8 of the mean diagonal magnitude.
        self.gauge = 1e-8 * diag_scale

    def _build_divergence(self) -> None:
        links = self.links
        n = self.structure.grid.num_nodes
        num_links = links.num_links
        rows = np.concatenate([links.node_a, links.node_b])
        cols = np.concatenate([np.arange(num_links)] * 2)
        data = np.concatenate([np.ones(num_links), -np.ones(num_links)])
        self.div = sp.csr_matrix((data, (rows, cols)),
                                 shape=(n, num_links))

    # ------------------------------------------------------------------
    def solenoidal_projection(self, link_current: np.ndarray) -> np.ndarray:
        """Remove the irrotational (port-sourced) current component.

        Solves the grounded graph-Laplacian problem
        ``D D^T phi = D I`` and returns ``I - D^T phi``, which has zero
        discrete divergence at every node.
        """
        link_current = np.asarray(link_current, dtype=complex)
        divergence = self.div @ link_current
        rhs = divergence.copy()
        rhs[0] = 0.0
        phi = self._projection_lu().solve(rhs)
        projected = link_current - self.div.T @ phi
        return projected

    def solve_vector_potential(self, link_current: np.ndarray) -> np.ndarray:
        """Edge line-integrals of A [V s] driven by the total link
        currents [A] of the quasi-static solve."""
        rhs = self.solenoidal_projection(link_current)
        return self._curl_curl_lu().solve(rhs)

    def factors(self) -> list:
        """``[projection, curl_curl]``: the factorizations of the
        grounded graph Laplacian and of the gauged curl-curl operator,
        each built on first need."""
        return [self._projection_lu(), self._curl_curl_lu()]

    def _projection_lu(self):
        if self._projection_factor is None:
            laplacian = (self.div @ self.div.T).tolil()
            # Ground node 0 to fix the nullspace of the graph Laplacian.
            laplacian[0, :] = 0.0
            laplacian[0, 0] = 1.0
            self._projection_factor = self._backend.factorize(
                laplacian.tocsr(), key="ampere.projection")
        return self._projection_factor

    def _curl_curl_lu(self):
        if self._curl_curl_factor is None:
            self._curl_curl_factor = self._backend.factorize(
                (self.curl_curl + self.gauge * sp.eye(
                    self.links.num_links, format="csr")).tocsr(),
                key="ampere.curl_curl")
        return self._curl_curl_factor


def staggered_correction(system, ampere: AmpereSystem, solution):
    """One staggered full-wave pass over a quasi-static solution.

    Computes the total link currents, solves the Ampere system for the
    vector potential, and re-solves the coupled system with the induced
    EMF ``j w A`` on every link.  The re-solve reuses the
    :class:`~repro.solver.ac.ACSystem`'s cached factorization (same
    pinned-contact set), and the Ampere operators are factorized once
    per :class:`AmpereSystem`, so repeated passes cost only triangular
    solves.
    """
    current = system.link_total_current(solution)
    vector_potential = ampere.solve_vector_potential(current)
    emf = 1j * system.omega * vector_potential
    corrected = system.solve(solution.excitations, link_emf=emf)
    corrected.vector_potential = np.asarray(vector_potential)
    return corrected
