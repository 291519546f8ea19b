"""The user-facing coupled A-V solver facade.

One :class:`AVSolver` instance owns a structure and a frequency and
solves deterministic samples: the nominal geometry, a perturbed-grid
sample from the variation models, and/or a perturbed doping profile.
The link topology and nominal geometry are cached so thousands of
stochastic samples share the expensive invariants.

Per *sample* (one geometry + doping pair) the solver additionally
caches the DC equilibrium and the assembled :class:`ACSystem`, which in
turn caches one LU factorization per pinned-contact set.  Repeated
solves on the same sample — per-port drives, full-wave correction
passes, repeated QoI extractions — therefore skip the Newton
equilibrium, the 3N x 3N assembly and the factorization entirely;
:meth:`AVSolver.solve_ports` solves all port drives as one multi-RHS
pass.

Across samples the solver keeps one more invariant: the nominal
sample's :class:`ACSystem`, solved once by full Newton.  Its converged
DC Jacobian factor is the chord reference of every perturbed sample's
equilibrium, and its AC factor per pinned-contact set is the chord
reference of every perturbed sample's AC solve — so a perturbed
sample factorizes nothing.  The nominal's sparsity patterns, one per
pinned-contact set for the AC system and one for the DC Laplacian,
are shared the same way: the perturbations never change the mesh
topology, so a perturbed sample scatters its matrix values into them
and builds no sparse structure of its own.  The nominal comes from
the nominal solve itself, or is computed on first need, so a sample's
answer never depends on which samples ran before it or in which
process.

:meth:`AVSolver.solve_samples` solves many samples ``AC_BATCH`` at a
time: each block's AC chords step in lockstep, one multi-RHS
back-substitution through the nominal factor per step for the whole
block, and every sample's answer is bitwise what :meth:`AVSolver.solve`
gives it.
"""

from __future__ import annotations

from itertools import islice

from repro.errors import GeometryError
from repro.geometry.structure import Structure
from repro.materials.doping import DopingProfile
from repro.mesh.dual import GridGeometry, compute_geometry
from repro.mesh.entities import LinkSet
from repro.mesh.perturbed import PerturbedGrid
from repro.solver.ac import ACSolution, ACSystem, solve_systems
from repro.solver.ampere import AmpereSystem, staggered_correction
from repro.solver.dc import solve_equilibrium
from repro.solver.linear import SparseFactor

#: Samples per lockstep AC block in :meth:`AVSolver.solve_samples`.  A
#: back-substitution through the nominal complex factor of the fast
#: TSV mesh costs 0.79 ms for one column and 0.54 ms per column for 4
#: (0.53 ms for 16), while every sample of a block keeps its system
#: alive until the block is solved: 4 takes the per-column saving at
#: the memory of 4 samples.
AC_BATCH = 4


class AVSolver:
    """Coupled frequency-domain EM-semiconductor solver.

    Parameters
    ----------
    structure:
        The material layout (see :mod:`repro.geometry.builders`).
    frequency:
        Excitation frequency [Hz] (the paper uses 1e9).
    recombination:
        Include SRH recombination in the carrier equations.
    full_wave:
        Run the Ampere vector-potential pass and re-solve with the
        induced EMF (eq. 3 coupling); off by default because the
        correction is negligible at 1 GHz on micrometre structures.

    Example
    -------
    >>> from repro.geometry import build_metalplug_structure
    >>> solver = AVSolver(build_metalplug_structure(), frequency=1e9)
    >>> solution = solver.solve({"plug1": 1.0, "plug2": 0.0})
    """

    def __init__(self, structure: Structure, frequency: float,
                 recombination: bool = True, full_wave: bool = False):
        if frequency <= 0.0:
            raise GeometryError(
                f"frequency must be positive, got {frequency}")
        self.structure = structure
        self.frequency = float(frequency)
        self.recombination = recombination
        self.full_wave = full_wave
        self.links = LinkSet(structure.grid)
        self._nominal_geometry = None
        self._ampere = None
        # One-sample cache: (geometry arg, doping arg, ACSystem).  Keyed
        # by *object identity* of the sample arguments — a new perturbed
        # grid or doping profile is a new sample; re-solving the same
        # objects (sweeps, per-port drives, full-wave passes) reuses the
        # equilibrium, the assembly and the cached factorizations.
        self._sample_cache = None
        # The nominal sample's system and its converged DC Jacobian
        # factor (None without a semiconductor), built once.
        self._nominal = None
        self._dc_factor = None
        # Nominal AC factors by frozenset(contacts), shared with every
        # perturbed sample's ACSystem.  A plain mapping: a sample never
        # refers back to this solver, so dropping it frees its
        # assembly at once.
        self._ac_references = {}
        # The nominal's sparsity patterns (see pattern_blocks), shared
        # the same way: AC ones by frozenset(contacts), and the DC
        # Laplacian's.
        self._ac_patterns = {}
        self._dc_patterns = {}

    # ------------------------------------------------------------------
    @property
    def nominal_geometry(self) -> GridGeometry:
        """FVM geometry of the unperturbed grid (cached)."""
        if self._nominal_geometry is None:
            self._nominal_geometry = compute_geometry(
                self.structure.grid, links=self.links)
        return self._nominal_geometry

    def geometry_for(self, sample) -> GridGeometry:
        """Resolve a geometry argument.

        ``sample`` may be ``None`` (nominal), a
        :class:`~repro.mesh.perturbed.PerturbedGrid`, or a ready
        :class:`~repro.mesh.dual.GridGeometry`.
        """
        if sample is None:
            return self.nominal_geometry
        if isinstance(sample, PerturbedGrid):
            return sample.geometry()
        if isinstance(sample, GridGeometry):
            return sample
        raise GeometryError(
            f"cannot interpret geometry sample of type {type(sample)!r}")

    # ------------------------------------------------------------------
    def system_for(self, geometry=None,
                   doping_profile: DopingProfile = None) -> ACSystem:
        """The assembled :class:`ACSystem` of one sample (cached).

        ``system_for()`` is the nominal sample, kept for the solver's
        lifetime.  Otherwise the cache holds the most recent sample,
        identified by object identity of the ``geometry`` and
        ``doping_profile`` arguments; passing a different perturbed
        grid or doping sample invalidates it and triggers a fresh
        equilibrium solve and assembly.
        """
        if geometry is None and doping_profile is None:
            return self._nominal_system()
        cached = self._sample_cache
        if (cached is not None and cached[0] is geometry
                and cached[1] is doping_profile):
            return cached[2]
        system = self._new_system(geometry, doping_profile)
        self._sample_cache = (geometry, doping_profile, system)
        return system

    def _new_system(self, geometry, doping_profile) -> ACSystem:
        """A fresh (uncached) :class:`ACSystem` of one perturbed
        sample — its equilibrium by the DC chord, its AC solves by the
        AC chord — or the nominal system for ``(None, None)``."""
        if geometry is None and doping_profile is None:
            return self._nominal_system()
        grid_geometry = self.geometry_for(geometry)
        equilibrium = solve_equilibrium(self.structure, grid_geometry,
                                        doping_profile=doping_profile,
                                        reference=self.dc_reference(),
                                        patterns=self._dc_patterns)
        return ACSystem(self.structure, grid_geometry, equilibrium,
                        self.frequency, recombination=self.recombination,
                        references=self._ac_references,
                        patterns=self._ac_patterns)

    def _nominal_system(self) -> ACSystem:
        """The nominal sample, solved by full Newton on first need;
        adopts its DC Jacobian factor as the DC chord reference."""
        if self._nominal is None:
            equilibrium = solve_equilibrium(self.structure,
                                            self.nominal_geometry,
                                            patterns=self._dc_patterns)
            if equilibrium.jacobian is not None:
                self._dc_factor = SparseFactor(equilibrium.jacobian())
            self._nominal = ACSystem(self.structure,
                                     self.nominal_geometry, equilibrium,
                                     self.frequency,
                                     recombination=self.recombination,
                                     patterns=self._ac_patterns)
        return self._nominal

    def dc_reference(self):
        """The nominal DC Jacobian factor, solved on first need
        (``None`` when the structure has no semiconductor)."""
        self._nominal_system()
        return self._dc_factor

    def ac_reference(self, contacts):
        """The nominal AC factor of one pinned-contact set, solved on
        first need and shared with every perturbed sample's
        :class:`ACSystem`."""
        key = frozenset(contacts)
        if key not in self._ac_references:
            self._ac_references[key] = \
                self._nominal_system()._restricted_system(contacts).factor
        return self._ac_references[key]

    # ------------------------------------------------------------------
    def solve(self, excitations: dict, geometry=None,
              doping_profile: DopingProfile = None) -> ACSolution:
        """Solve one deterministic sample.

        Parameters
        ----------
        excitations:
            Mapping ``contact name -> complex voltage phasor``.
        geometry:
            Optional perturbed grid / geometry (default: nominal).
        doping_profile:
            Optional RDF doping sample (default: structure doping).
        """
        system = self.system_for(geometry, doping_profile)
        # Shared before the solve: a perturbed sample chords through it.
        self.ac_reference(excitations)
        solution = system.solve(excitations)
        if self.full_wave:
            solution = self._full_wave_pass(system, solution)
        return solution

    def solve_ports(self, ports, geometry=None,
                    doping_profile: DopingProfile = None) -> list:
        """Solve all unit port drives of one sample in a single batch.

        One equilibrium, one assembly and one multi-RHS solve through
        one factor (the nominal sample's LU, or a chord through it)
        cover every port; see :meth:`ACSystem.solve_ports`.  Returns
        one :class:`ACSolution` per port, in ``ports`` order.
        """
        system = self.system_for(geometry, doping_profile)
        self.ac_reference(ports)  # shared before the solve, as above
        solutions = system.solve_ports(ports)
        if self.full_wave:
            solutions = [self._full_wave_pass(system, solution)
                         for solution in solutions]
        return solutions

    def solve_samples(self, samples, excitations: dict = None,
                      ports=None):
        """Solve many samples, ``AC_BATCH`` at a time.

        ``samples`` is an iterable of ``(geometry, doping_profile)``
        pairs, consumed lazily: each block of ``AC_BATCH`` samples
        solves its equilibria and builds its systems as :meth:`solve`
        does, then solves every AC system in one lockstep chord
        (:func:`~repro.solver.ac.solve_systems`), one multi-RHS
        back-substitution through the nominal factor per step.  Yields,
        per sample and in order, exactly what ``solve(excitations,
        geometry, doping_profile)`` — or, with ``ports``,
        ``solve_ports(ports, geometry, doping_profile)`` — returns.

        The sample cache of :meth:`system_for` is not used: a block's
        systems are dropped once the caller has taken their answers, so
        at most ``AC_BATCH`` samples are alive at once.
        """
        if (excitations is None) == (ports is None):
            raise GeometryError(
                "pass exactly one of excitations and ports")
        samples = iter(samples)
        while True:
            block = list(islice(samples, AC_BATCH))
            if not block:
                return
            # Shared before the solve: the samples chord through it.
            self.ac_reference(excitations if ports is None else ports)
            results = solve_systems(
                (self._new_system(*sample) for sample in block),
                excitations=excitations, ports=ports)
            if self.full_wave:
                results = [
                    self._full_wave_pass(result.system, result)
                    if ports is None else
                    [self._full_wave_pass(solution.system, solution)
                     for solution in result]
                    for result in results]
            # Handing the answers out one by one leaves no reference
            # here: the next block is built with this one dropped.
            while results:
                yield results.pop(0)

    # ------------------------------------------------------------------
    def _full_wave_pass(self, system: ACSystem,
                        solution: ACSolution) -> ACSolution:
        """One staggered Ampere iteration (see solver.ampere)."""
        if self._ampere is None:
            self._ampere = AmpereSystem(self.structure,
                                        self.nominal_geometry)
        return staggered_correction(system, self._ampere, solution)
