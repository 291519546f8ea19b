"""Linear-solver backends (the ``SolverBackend`` seam).

A *backend* turns a square sparse matrix into a *factor* — an object
answering ``solve(rhs)`` for ``(n,)`` and ``(n, k)`` right-hand sides.
The AC and Ampere factorizations go through it: the callers
(:class:`~repro.solver.ac.ACSystem`,
:class:`~repro.solver.ampere.AmpereSystem`,
:func:`~repro.solver.sweep.frequency_sweep`) never know which backend
they got.  The DC equilibrium stays outside the seam: its Newton
steps (:func:`~repro.solver.newton.damped_newton`) factorize with
:func:`~repro.solver.linear.solve_sparse`, and an
:class:`~repro.solver.avsolver.AVSolver` factorizes only its nominal
sample that way — every perturbed sample back-substitutes through the
nominal converged factor (a chord iteration; ``docs/SOLVER.md``).

The AC solve of a perturbed sample takes the same shortcut through the
seam: :meth:`SolverBackend.chord` wraps the sample's matrix and the
nominal sample's AC factor in a :class:`_ChordFactor`, which refines
every solve through that one factor to a certified row-scaled residual
and falls back to the backend's own ``factorize`` when the iteration
stops contracting.  Both backends take the chord.
:func:`solve_chords` solves many such systems at once: the chords
that share a reference step in lockstep, one multi-RHS
back-substitution per step over all their open columns, each answer
bitwise what its own ``solve`` returns.

The backend set is the fixed table :data:`_BACKENDS`:

* ``"lu"`` — the reference: :class:`~repro.solver.linear.SparseFactor`
  exactly as before the seam existed.  Bitwise-identical results, by
  construction (the backend returns the ``SparseFactor`` itself).
* ``"krylov"`` — the chord through each reuse ``key``'s first LU (its
  *seed*): the previous frequency of a sweep, say.  The first
  ``factorize`` under a key is a plain LU (there is nothing to reuse
  yet); every later matrix under that key is a :class:`_ChordFactor`
  through the seed.  Fixed-factor refinement is the simplest
  Krylov-subspace iteration (preconditioned Richardson), hence the
  name.  When the chord stops contracting it falls back to a fresh LU
  of the current matrix, which also becomes the new seed — a stale
  seed costs time, never correctness.

The default sweep and every :class:`~repro.solver.avsolver.AVSolver`
use ``"lu"``; ``"krylov"`` is picked by passing ``backend=`` to
:func:`~repro.solver.sweep.frequency_sweep`,
:class:`~repro.solver.ac.ACSystem` or
:class:`~repro.solver.ampere.AmpereSystem`.  No spec, request or CLI
flag selects a backend, so the choice never reaches a cache key.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SingularSystemError, SolverBackendError
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.solver.linear import SparseFactor, row_scaling
from repro.solver.newton import CHORD_CONTRACTION

#: Execution-only observability.  Factorizations are labeled by the
#: backend that performed them — label values are the names in
#: :data:`_BACKENDS`, so the cardinality is bounded by that table.
_BACKEND_FACTORIZATIONS = counter(
    "repro_solver_backend_factorizations_total",
    "Direct LU factorizations performed, labeled by solver backend")

_AC_CHORD_STEPS = counter(
    "repro_solver_ac_chord_steps_total",
    "AC chord steps: multi-RHS back-substitutions through a nominal "
    "AC factor or a krylov seed, each over every open column of the "
    "systems iterating together")
_AC_CHORD_FALLBACKS = counter(
    "repro_solver_ac_chord_fallbacks_total",
    "AC chord solves that stopped contracting and were answered by "
    "a fresh factorization")

#: A chord solve is certified once every column's row-scaled residual
#: ``‖R(b − A·x)‖`` is at most this fraction of ``‖R·b‖``: the level
#: the direct LU itself reaches on the coupled A-V matrices (4–5e-15),
#: above the chord's own floor (~1.6e-15).
CHORD_TOLERANCE = 1e-14
#: Chord steps before the fallback factorization: about one LU's cost
#: on the fast TSV mesh, where a chord certifies in 11–17 steps.
CHORD_MAX_STEPS = 25


class SolverBackend:
    """Base class of the seam: ``factorize`` a matrix into a factor.

    A *factor* is any object with ``solve(rhs)``, ``shape`` and
    ``dtype`` — the :class:`~repro.solver.linear.SparseFactor`
    interface.  ``key`` is an opaque hashable reuse hint: calls that
    share a key solve *related* matrices (same pinned-contact set
    across frequencies or samples), which is what makes factor reuse
    possible.  Backends are free to ignore it.
    """

    name = "abstract"

    def factorize(self, matrix, key=None):
        """Return a solve-ready factor for a square sparse matrix."""
        raise NotImplementedError

    def chord(self, matrix, reference, key=None):
        """A factor of ``matrix`` that iterates through ``reference``.

        ``reference`` is a factor of a nearby matrix of the same shape
        (an :class:`~repro.solver.avsolver.AVSolver` passes its nominal
        sample's AC factor).  Every solve refines through it
        (:class:`_ChordFactor`) and falls back to
        ``factorize(matrix, key)`` when the refinement stops
        contracting.  Without a reference (``None``) or with one of
        another shape this is ``factorize`` itself.
        """
        matrix = matrix.tocsr()
        if reference is None or reference.shape != matrix.shape:
            return self.factorize(matrix, key=key)
        return _ChordFactor(
            matrix, reference, lambda: self.factorize(matrix, key=key))


class LUBackend(SolverBackend):
    """The reference backend: max-scaled SuperLU, exactly pre-seam.

    ``factorize`` returns the :class:`SparseFactor` itself — no
    wrapper, no extra arithmetic — so results are bitwise-identical to
    the code before the seam existed (the conformance suite asserts
    this against :func:`~repro.solver.linear.solve_sparse`).
    """

    name = "lu"

    def factorize(self, matrix, key=None):
        """Direct LU factorization; the reuse ``key`` is ignored."""
        factor = SparseFactor(matrix)
        _BACKEND_FACTORIZATIONS.inc(backend=self.name)
        return factor


class KrylovBackend(SolverBackend):
    """The chord through each reuse key's first LU.

    Stateful on purpose: the backend instance remembers one LU per
    reuse ``key`` (``_seeds``).  A sweep passes *one* instance through
    every :class:`~repro.solver.ac.ACSystem` it creates, so every
    frequency after the first iterates through the first frequency's
    factorization.  Cold calls (no key, no seed, or a seed of another
    shape) do a direct LU and record it as the key's seed.

    Correctness is certified per right-hand side by the
    :class:`_ChordFactor` certificate; a chord that stops contracting
    falls back to a fresh LU of the *current* matrix, which replaces
    the seed.  A krylov sweep therefore degrades to LU speed, never to
    a wrong answer.
    """

    name = "krylov"

    def __init__(self):
        self._seeds = {}

    def factorize(self, matrix, key=None):
        """LU when cold, a chord through the key's seed when warm."""
        matrix = matrix.tocsr()
        seed = self._seeds.get(key) if key is not None else None
        if seed is None or seed.shape != matrix.shape:
            return self._seed(matrix, key)
        # The fallback must be an LU: another chord through the same
        # seed would fail the same way.
        return _ChordFactor(matrix, seed,
                            lambda: self._seed(matrix, key))

    def _seed(self, matrix, key):
        """A fresh LU of ``matrix``, recorded as the seed of ``key``."""
        factor = SparseFactor(matrix)
        _BACKEND_FACTORIZATIONS.inc(backend=self.name)
        if key is not None:
            self._seeds[key] = factor
        return factor


class _ChordFactor:
    """Solve-ready chord iteration: one matrix, one nearby factor.

    Every solve runs fixed-factor iterative refinement,
    ``x ← x + M⁻¹(b − A·x)`` with ``M⁻¹`` the reference factor's
    ``solve``, until each column is certified by the row-scaled
    residual ``‖R(b − A·x)‖ ≤ CHORD_TOLERANCE·‖R·b‖``, ``R`` the
    matrix's own row max-scaling.  The iteration is
    :func:`solve_chords`'s, as a batch of one: an ``(n, k)`` block
    iterates as one — one multi-RHS back-substitution per step — and a
    certified column leaves the block, so a stacked solve equals the
    stacked single solves exactly.

    A non-finite residual, a residual above ``CHORD_CONTRACTION``
    times the previous one (from the third step on), or
    ``CHORD_MAX_STEPS`` steps without certification hand the solve —
    and every later one — to ``fallback()``, a direct factorization
    of the matrix.  An empty matrix row raises
    :class:`~repro.errors.SingularSystemError` at construction.

    ``solve`` keeps the :class:`~repro.solver.linear.SparseFactor`
    contract: ``(n,)`` / ``(n, k)`` right-hand sides, a complex RHS
    against a real matrix split into real and imaginary solves, an
    early return for ``n == 0`` and
    :class:`~repro.errors.SingularSystemError` on a shape mismatch.
    """

    def __init__(self, matrix, reference, fallback):
        self.shape = matrix.shape
        self.dtype = matrix.dtype
        self._matrix = matrix
        self._reference = reference
        self._fallback = fallback
        self._direct = None
        self._row_scale = row_scaling(matrix) if matrix.shape[0] else None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Certified chord solve (a factorization when it fails)."""
        rhs = np.asarray(rhs)
        if self._iterates(rhs):
            return solve_chords([self], [rhs])[0]
        if self._direct is not None:
            return self._direct.solve(rhs)
        n = self.shape[0]
        if rhs.shape[0] != n:
            raise SingularSystemError(
                f"rhs length {rhs.shape[0]} does not match matrix "
                f"size {n}")
        if n == 0:
            return np.zeros(rhs.shape,
                            dtype=np.result_type(self.dtype, rhs.dtype))
        # Mirror SparseFactor: a complex RHS against a real matrix is
        # two real solves, keeping dtype promotion identical.
        return (self.solve(np.ascontiguousarray(rhs.real))
                + 1j * self.solve(np.ascontiguousarray(rhs.imag)))

    def _iterates(self, rhs: np.ndarray) -> bool:
        """Does ``rhs`` go through the chord itself — not through the
        fallback, the empty system or a real/imaginary split?"""
        return (self._direct is None and self.shape[0] > 0
                and rhs.shape[0] == self.shape[0]
                and (np.issubdtype(self.dtype, np.complexfloating)
                     or not np.iscomplexobj(rhs)))


def solve_chords(factors, blocks) -> list:
    """``factor.solve(block)`` of every pair, the chords in lockstep.

    ``factors`` are solve-ready factors (chord factors, or any other
    factor, which simply solves its block) and ``blocks`` their
    ``(n,)`` / ``(n, k)`` right-hand sides.  Chord factors that share a
    reference iterate together: each step is one multi-RHS
    back-substitution through the reference over the open columns of
    every system (one ``repro_solver_ac_chord_steps_total`` step).
    Each system keeps its own certificate, contraction check, step cap
    and non-finite stop; a system whose chord fails leaves the block
    and is answered by its own fallback factorization, while the
    others go on unchanged.  A complex SuperLU back-substitution (that
    of every AC reference) treats every column on its own, so each
    answer then equals ``factor.solve(block)`` bitwise; a real one
    does not promise that.

    The call is one ``chord_batch`` span (execution-only) with attrs
    ``samples`` (systems), ``columns`` and ``steps``.
    """
    blocks = [np.asarray(block) for block in blocks]
    results = [None] * len(factors)
    groups = {}
    with span("chord_batch", samples=len(factors),
              columns=sum(1 if block.ndim == 1 else block.shape[1]
                          for block in blocks)) as node:
        for i, (factor, block) in enumerate(zip(factors, blocks)):
            if isinstance(factor, _ChordFactor) and factor._iterates(block):
                groups.setdefault(id(factor._reference), []).append(i)
            else:
                results[i] = factor.solve(block)
        steps = 0
        for members in groups.values():
            chords = [factors[i] for i in members]
            solved, taken = _refine(chords, [blocks[i] for i in members])
            steps += taken
            for i, chord, x in zip(members, chords, solved):
                if x is None:
                    _AC_CHORD_FALLBACKS.inc()
                    chord._direct = chord._fallback()
                    x = chord._direct.solve(blocks[i])
                results[i] = x.reshape(blocks[i].shape)
        node.attrs["steps"] = steps
    return results


def _refine(chords, blocks):
    """Lockstep chord refinement of systems sharing one reference.

    Returns ``(solutions, steps)``: each system's ``(n, k)`` solution,
    or ``None`` where its chord was not certified, and the number of
    multi-RHS back-substitutions taken.
    """
    reference = chords[0]._reference
    states = [_ChordState(chord, block if block.ndim == 2
                          else block[:, None], reference)
              for chord, block in zip(chords, blocks)]
    open_, steps = states, 0
    while open_ and steps < CHORD_MAX_STEPS:
        steps += 1
        update = reference.solve(
            np.hstack([state.residual for state in open_]))
        _AC_CHORD_STEPS.inc()
        start = 0
        for state in open_:
            width = state.active.size
            state.advance(steps, update[:, start:start + width])
            start += width
        open_ = [state for state in open_ if state.open]
    # Still open here means CHORD_MAX_STEPS without certification.
    return [None if state.failed or state.active.size else state.x
            for state in states], steps


class _ChordState:
    """One system's iterate inside :func:`_refine`."""

    def __init__(self, chord, block, reference):
        self.chord = chord
        self.block = block
        self.bound = CHORD_TOLERANCE * _row_scaled_norms(chord._row_scale,
                                                         block)
        self.x = np.zeros(block.shape, dtype=np.result_type(
            chord.dtype, reference.dtype, block.dtype))
        self.active = np.arange(block.shape[1])
        self.residual = block
        self.previous = None
        self.failed = False

    @property
    def open(self) -> bool:
        return not self.failed and self.active.size > 0

    def advance(self, step: int, update: np.ndarray) -> None:
        """Apply one step's update; certify columns, or fail."""
        active = self.active
        self.x[:, active] += update
        residual = (self.block[:, active]
                    - self.chord._matrix @ self.x[:, active])
        norms = _row_scaled_norms(self.chord._row_scale, residual)
        if not np.all(np.isfinite(norms)):
            self.failed = True
            return
        open_ = norms > self.bound[active]
        if step >= 3 and np.any(
                norms[open_] > CHORD_CONTRACTION * self.previous[open_]):
            self.failed = True
            return
        self.active = active[open_]
        self.residual, self.previous = residual[:, open_], norms[open_]


def _row_scaled_norms(row_scale: np.ndarray,
                      block: np.ndarray) -> np.ndarray:
    """``‖R·v‖`` of every column ``v`` of an ``(n, k)`` block.

    The chord certifies ``‖R(b − A·x)‖ ≤ tol·‖R·b‖`` in this norm:
    each equation normalized by its largest coefficient, the tightest
    norm the direct path itself satisfies on matrices whose raw
    entries span tens of orders of magnitude.  Each column is reduced
    from its own contiguous copy, so its norm does not depend on the
    block it was solved in.
    """
    scaled = row_scale[:, None] * block
    return np.array([np.linalg.norm(np.ascontiguousarray(scaled[:, j]))
                     for j in range(scaled.shape[1])])


#: The backend table: every backend there is, by name.
_BACKENDS = {"lu": LUBackend, "krylov": KrylovBackend}


def resolve_backend(backend=None) -> SolverBackend:
    """Normalize a backend designation to a live instance.

    Accepts ``None`` (``"lu"``), a backend name from
    :data:`_BACKENDS`, or an already-live :class:`SolverBackend`
    (returned unchanged — this is how one stateful instance is shared
    across the systems of a sweep).  Anything else raises
    :class:`~repro.errors.SolverBackendError`.
    """
    if isinstance(backend, SolverBackend):
        return backend
    if backend is None:
        backend = "lu"
    if not isinstance(backend, str) or backend not in _BACKENDS:
        raise SolverBackendError(
            f"cannot interpret solver backend designation {backend!r} "
            f"of type {type(backend).__name__}; valid: "
            f"{sorted(_BACKENDS)} or a live backend")
    return _BACKENDS[backend]()
