"""Frequency sweeps and port admittance extraction.

A small utility layer over the solver stack: solve the same structure
across a frequency list, collecting the port admittance matrix ``Y(f)``
(port currents per unit drive).  Useful for model-order studies and for
locating the dielectric-relaxation crossover of the doped substrate —
the physics that makes the paper's 1 GHz operating point interesting
for TSVs.

The sweep is batched end-to-end: the DC equilibrium (frequency
independent) is solved once for the whole sweep, each frequency
assembles one :class:`~repro.solver.ac.ACSystem` and factorizes its
restricted matrix once, and all ``P`` port drives go through that
single LU as one multi-RHS solve (:meth:`ACSystem.solve_ports`).  With
``P`` ports and ``F`` frequencies this costs 1 equilibrium + ``F``
factorizations instead of the ``P x F`` equilibria and factorizations
of a per-port rebuild.  Every factorization is a direct LU unless the
caller asks for the ``"krylov"`` backend.  The frequencies share one
sparsity-pattern map (:func:`~repro.solver.linear.pattern_blocks`):
the frequency changes only the matrix values, so the first frequency
builds the pattern and the others scatter into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.extraction.current import port_current
from repro.geometry.structure import Structure
from repro.mesh.dual import compute_geometry
from repro.mesh.entities import LinkSet
from repro.solver.ac import ACSystem
from repro.solver.ampere import AmpereSystem, staggered_correction
from repro.solver.backends import resolve_backend
from repro.solver.dc import solve_equilibrium


@dataclass
class SweepResult:
    """Port admittance across frequency.

    Attributes
    ----------
    frequencies:
        ``(F,)`` sweep frequencies [Hz].
    ports:
        Ordered port (contact) names.
    admittance:
        ``(F, P, P)`` complex matrix: ``admittance[k, i, j]`` is the
        current into port ``i`` when port ``j`` is driven at 1 V and
        the others grounded, at frequency ``k``.
    """

    frequencies: np.ndarray
    ports: list
    admittance: np.ndarray

    def port_index(self, name: str) -> int:
        try:
            return self.ports.index(name)
        except ValueError as exc:
            raise GeometryError(
                f"unknown port {name!r}; ports: {self.ports}") from exc

    def input_admittance(self, port: str) -> np.ndarray:
        """``Y_ii(f)`` of one port, shape ``(F,)``."""
        i = self.port_index(port)
        return self.admittance[:, i, i]

    def transfer_admittance(self, into: str, driven: str) -> np.ndarray:
        """``Y_ij(f)``: current into ``into`` per volt on ``driven``."""
        return self.admittance[:, self.port_index(into),
                               self.port_index(driven)]

    def effective_capacitance(self, port: str) -> np.ndarray:
        """``Im(Y_ii) / w``: the engineering capacitance of a port."""
        omega = 2.0 * np.pi * self.frequencies
        return self.input_admittance(port).imag / omega


def frequency_sweep(structure: Structure, frequencies, ports=None,
                    recombination: bool = True,
                    full_wave: bool = False,
                    backend=None) -> SweepResult:
    """Characterize the structure across frequency, all ports batched.

    One DC equilibrium serves the whole sweep; per frequency the
    coupled system is assembled and factorized once and every port
    drive is solved against that single factorization (the full-wave
    correction pass, when enabled, also reuses it).

    Parameters
    ----------
    structure:
        The structure to characterize.
    frequencies:
        Iterable of frequencies [Hz].  Duplicates are solved once: the
        result's frequency axis is the *unique sorted* frequency list,
        so ``result.frequencies.size`` may be smaller than the input.
    ports:
        Contact names to treat as ports (default: all contacts, sorted).
    recombination:
        Include the SRH linearization (forwarded to :class:`ACSystem`).
    full_wave:
        Add the staggered Ampere (induction EMF) correction per port.
    backend:
        Linear-solver backend designation (see
        :mod:`repro.solver.backends`); default the direct ``"lu"``.
        Resolved once for the whole sweep and shared by every
        per-frequency system, so the ``"krylov"`` backend solves every
        frequency after the first by a chord through the first
        frequency's factorization — nearby frequencies differ by a
        smooth ``j w`` perturbation, where a reused LU certifies in a
        handful of back-substitutions.  The chord lands ~1e-8 from the
        direct admittance on the paper's meshes, so the default stays
        direct.
    """
    frequencies = np.unique(
        np.asarray([float(f) for f in frequencies], dtype=float))
    if frequencies.size == 0:
        raise GeometryError("at least one frequency is required")
    if ports is None:
        ports = sorted(structure.contacts)
    ports = list(ports)
    if not ports:
        raise GeometryError("at least one port is required")

    backend = resolve_backend(backend)
    links = LinkSet(structure.grid)
    geometry = compute_geometry(structure.grid, links=links)
    equilibrium = solve_equilibrium(structure, geometry)
    ampere = AmpereSystem(structure, geometry, backend=backend) \
        if full_wave else None

    admittance = np.zeros((frequencies.size, len(ports), len(ports)),
                          dtype=complex)
    patterns = {}
    for k, frequency in enumerate(frequencies):
        system = ACSystem(structure, geometry, equilibrium, frequency,
                          recombination=recombination, backend=backend,
                          patterns=patterns)
        solutions = system.solve_ports(ports)
        if full_wave:
            solutions = [staggered_correction(system, ampere, solution)
                         for solution in solutions]
        for j, solution in enumerate(solutions):
            for i, port in enumerate(ports):
                admittance[k, i, j] = port_current(solution, port)
    return SweepResult(frequencies=frequencies, ports=ports,
                       admittance=admittance)
