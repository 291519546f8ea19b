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

Across solvers, the nominal invariants live in one
:class:`NominalState` per solver.  A plain ``AVSolver(...)`` keeps its
own.  :meth:`AVSolver.for_structure`, the constructor a
:class:`~repro.analysis.problem.VariationalProblem` uses, shares them:
the process keeps its most recently completed nominal state in
:data:`NOMINAL_SLOT`, keyed by the structure's content
(:meth:`~repro.geometry.structure.Structure.fingerprint`), the
frequency and the solver flags, and a solver whose key matches adopts
it instead of solving the nominal again.  The members of a sweep over
variation parameters share one structure, so only the first of them
pays the nominal Newton solve, its factors and its sparsity patterns
(``docs/SOLVER.md``, "One nominal per structure").
"""

from __future__ import annotations

import os
import threading
import weakref
from itertools import islice

from repro.errors import GeometryError
from repro.geometry.structure import Structure
from repro.materials.doping import DopingProfile
from repro.mesh.dual import GridGeometry, compute_geometry
from repro.mesh.entities import LinkSet
from repro.mesh.perturbed import PerturbedGrid
from repro.obs.metrics import counter
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

#: Byte cap of the nominal state :data:`NOMINAL_SLOT` holds, counted by
#: :meth:`NominalState.nbytes`.  The fast serving TSV mesh's state
#: counts 6.4 MB and the default metal-plug mesh's 33 MB; the default
#: TSV mesh's 124 MB is over the cap, so its builds each solve their
#: own nominal and drop it with the problem.
NOMINAL_STATE_BYTES = 64 * 2**20

_NOMINAL_SOLVES = counter(
    "repro_solver_nominal_solves_total",
    "Nominal samples solved (full Newton, the DC reference LU and the "
    "nominal AC assembly); a nominal shared from the process's nominal "
    "slot is not counted")


class NominalState:
    """What a solver derives from its nominal sample, once.

    The link topology, the nominal geometry, the nominal
    :class:`ACSystem` with its restricted factor per pinned-contact
    set, the DC reference factor (``None`` without a semiconductor),
    the AC references by ``frozenset(contacts)``, the AC and DC
    sparsity patterns (see :func:`~repro.solver.linear.pattern_blocks`)
    and the Ampere system of the full-wave pass.  ``system`` is set
    last: a state whose ``system`` is set has a complete nominal.

    A state is shared only once complete (:meth:`_NominalSlot.offer`).
    What is added later, an AC reference of a new contact set or the
    Ampere system, is added under ``lock``, so solvers on several
    threads can share one state; everything else a solve reads of it
    is never written again.
    """

    def __init__(self, structure: Structure):
        #: The structure the nominal is solved on.  A state is shared
        #: only while its fingerprint still equals ``key``'s.
        self.structure = structure
        #: ``(fingerprint, frequency, recombination, full_wave)`` once
        #: offered to :data:`NOMINAL_SLOT`, else ``None``.
        self.key = None
        self._links = None
        self.geometry = None
        self.system = None
        self.dc_factor = None
        self.ac_references = {}
        self.ac_patterns = {}
        self.dc_patterns = {}
        self.ampere = None
        self.lock = threading.Lock()
        _STATES.add(self)

    @property
    def links(self) -> LinkSet:
        """The grid's link topology (built on first need)."""
        if self._links is None:
            self._links = LinkSet(self.structure.grid)
        return self._links

    def nbytes(self) -> int:
        """Bytes the state holds in its factors and sparsity patterns,
        the larger part of it: each factor's ``fill x itemsize`` plus
        its scalings (:attr:`SparseFactor.nbytes
        <repro.solver.linear.SparseFactor.nbytes>`), and every array
        of every pattern and block."""
        factors = [self.dc_factor, *self.ac_references.values()]
        if self.ampere is not None:
            factors += self.ampere.factors()
        held = sum(factor.nbytes for factor in factors
                   if isinstance(factor, SparseFactor))
        for entry in (*self.ac_patterns.values(),
                      *self.dc_patterns.values()):
            held += sum(part.nbytes for part in entry)
        return held


#: Every live state, so a forked child can renew their locks.
_STATES = weakref.WeakSet()


class _NominalSlot:
    """The one completed nominal state a process keeps.

    It holds the most recently completed state offered to it, and only
    while that state fits under :data:`NOMINAL_STATE_BYTES`.  A solver
    built by :meth:`AVSolver.for_structure` adopts it when its key
    matches; the held state keeps the factors of at most one structure
    alive between builds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._state = None

    def get(self, key):
        """The held state solved for ``key``, or ``None``.

        A state whose structure was changed after it was solved (its
        fingerprint moved) is dropped instead.
        """
        with self._lock:
            state = self._state
        if state is None or state.key != key:
            return None
        if state.structure.fingerprint() != key[0]:
            self.discard(state)
            return None
        return state

    def offer(self, state: NominalState) -> None:
        """Hold ``state``, whose nominal just completed, in place of
        the previous one, or hold nothing when it is over the cap or
        its structure changed while it was solved."""
        fits = (state.structure.fingerprint() == state.key[0]
                and state.nbytes() <= NOMINAL_STATE_BYTES)
        with self._lock:
            self._state = state if fits else None

    def grew(self, state: NominalState) -> None:
        """Drop ``state`` if it is held and has grown over the cap."""
        if self._state is state \
                and state.nbytes() > NOMINAL_STATE_BYTES:
            self.discard(state)

    def discard(self, state: NominalState) -> None:
        """Stop holding ``state`` (if it is the one held)."""
        with self._lock:
            if self._state is state:
                self._state = None

    def clear(self) -> None:
        """Hold nothing: the next build of any structure solves its
        nominal."""
        with self._lock:
            self._state = None


#: The process's nominal slot (see :class:`_NominalSlot`).
NOMINAL_SLOT = _NominalSlot()


def _renew_locks() -> None:
    """In a forked child, fresh locks for the slot and every state: a
    lock another parent thread held at the fork stays held forever."""
    NOMINAL_SLOT._lock = threading.Lock()
    for state in list(_STATES):
        state.lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_locks)


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
        # The nominal sample's invariants: this solver's own, or, from
        # for_structure, possibly shared with other solvers.  A sample
        # never refers back to this solver or its state, so dropping a
        # sample frees its assembly at once.
        self.nominal_state = NominalState(structure)
        #: True when the nominal state was adopted from
        #: :data:`NOMINAL_SLOT` instead of solved here.
        self.nominal_shared = False
        # The NOMINAL_SLOT key a completed nominal is offered under
        # (for_structure only).
        self._slot_key = None
        # One-sample cache: (geometry arg, doping arg, ACSystem).  Keyed
        # by *object identity* of the sample arguments — a new perturbed
        # grid or doping profile is a new sample; re-solving the same
        # objects (sweeps, per-port drives, full-wave passes) reuses the
        # equilibrium, the assembly and the cached factorizations.
        self._sample_cache = None

    @classmethod
    def for_structure(cls, structure: Structure, frequency: float,
                      recombination: bool = True,
                      full_wave: bool = False) -> "AVSolver":
        """A solver that shares its nominal state with the process.

        Its nominal state is the one :data:`NOMINAL_SLOT` holds for
        the structure's content, frequency and flags, if any; else
        the solver solves its own and offers it to the slot once
        complete.  Everything else (the sample cache, attributes set
        on the solver) stays its own, and its answers are bitwise
        those of a plain ``AVSolver``.
        """
        solver = cls(structure, frequency, recombination=recombination,
                     full_wave=full_wave)
        solver._slot_key = (structure.fingerprint(), solver.frequency,
                            bool(recombination), bool(full_wave))
        state = NOMINAL_SLOT.get(solver._slot_key)
        if state is not None:
            solver.nominal_state = state
            solver.nominal_shared = True
        return solver

    # ------------------------------------------------------------------
    @property
    def links(self) -> LinkSet:
        """The grid's link topology (cached)."""
        return self.nominal_state.links

    @property
    def nominal_geometry(self) -> GridGeometry:
        """FVM geometry of the unperturbed grid (cached)."""
        state = self.nominal_state
        if state.geometry is None:
            state.geometry = compute_geometry(self.structure.grid,
                                              links=self.links)
        return state.geometry

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
        state = self.nominal_state
        grid_geometry = self.geometry_for(geometry)
        equilibrium = solve_equilibrium(self.structure, grid_geometry,
                                        doping_profile=doping_profile,
                                        reference=self.dc_reference(),
                                        patterns=state.dc_patterns)
        return ACSystem(self.structure, grid_geometry, equilibrium,
                        self.frequency, recombination=self.recombination,
                        references=state.ac_references,
                        patterns=state.ac_patterns)

    def _nominal_system(self) -> ACSystem:
        """The nominal sample, solved by full Newton on first need;
        adopts its DC Jacobian factor as the DC chord reference.  A
        solver from :meth:`for_structure` then offers its state to
        :data:`NOMINAL_SLOT`."""
        state = self.nominal_state
        if state.system is None:
            equilibrium = solve_equilibrium(self.structure,
                                            self.nominal_geometry,
                                            patterns=state.dc_patterns)
            if equilibrium.jacobian is not None:
                state.dc_factor = SparseFactor(equilibrium.jacobian())
            state.system = ACSystem(self.structure,
                                    self.nominal_geometry, equilibrium,
                                    self.frequency,
                                    recombination=self.recombination,
                                    patterns=state.ac_patterns)
            _NOMINAL_SOLVES.inc()
            if self._slot_key is not None:
                state.key = self._slot_key
                NOMINAL_SLOT.offer(state)
        return state.system

    def dc_reference(self):
        """The nominal DC Jacobian factor, solved on first need
        (``None`` when the structure has no semiconductor)."""
        self._nominal_system()
        return self.nominal_state.dc_factor

    def ac_reference(self, contacts):
        """The nominal AC factor of one pinned-contact set, solved on
        first need and shared with every perturbed sample's
        :class:`ACSystem`."""
        key = frozenset(contacts)
        state = self.nominal_state
        factor = state.ac_references.get(key)
        if factor is None:
            nominal = self._nominal_system()
            with state.lock:
                factor = state.ac_references.get(key)
                if factor is None:
                    factor = nominal._restricted_system(contacts).factor
                    state.ac_references[key] = factor
            NOMINAL_SLOT.grew(state)
        return factor

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
        state = self.nominal_state
        if state.ampere is None:
            with state.lock:
                if state.ampere is None:
                    ampere = AmpereSystem(self.structure,
                                          self.nominal_geometry)
                    ampere.factors()
                    state.ampere = ampere
            NOMINAL_SLOT.grew(state)
        return staggered_correction(system, state.ampere, solution)
