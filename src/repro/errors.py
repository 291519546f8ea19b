"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still distinguishing mesh problems from solver
problems when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class MeshError(ReproError):
    """A mesh is structurally invalid (bad sizes, non-monotonic axes...)."""


class MeshDestroyedError(MeshError):
    """A geometric perturbation inverted the mesh.

    This is the failure mode of the *traditional* perturbation model that
    Fig. 1(a) of the paper illustrates: a perturbed node crossed one of its
    neighbours so cell volumes became non-positive.
    """


class GeometryError(ReproError):
    """A structure definition is inconsistent (overlapping boxes, regions
    outside the simulation domain...)."""


class MaterialError(ReproError):
    """A material definition or lookup is invalid."""


class ConvergenceError(ReproError):
    """A nonlinear (Newton / Gummel) iteration failed to converge."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SingularSystemError(ReproError):
    """A linear system factorization failed (singular or badly scaled)."""


class SolverBackendError(ReproError):
    """Invalid solver-backend designation (an unknown backend name, or
    an object that is neither a name nor a live backend)."""


class StochasticError(ReproError):
    """Invalid stochastic-model configuration (bad covariance, empty
    variable set, unsupported expansion order...)."""


class ExtractionError(ReproError):
    """A post-processing quantity could not be computed (e.g. requesting
    the current through an interface that does not exist)."""


class ServingError(ReproError):
    """Invalid surrogate-serving request (unknown preset, malformed
    spec or query, miss on a read-only store...)."""


class StoreCorruptionError(ServingError):
    """A persisted surrogate entry failed its integrity check (checksum
    mismatch, truncated payload, missing sidecar fields)."""


class StoreSchemaError(ServingError):
    """A persisted surrogate entry was written under an incompatible
    schema version, or holds a spec this build rejects, and cannot be
    used."""


class CampaignError(ServingError):
    """Invalid campaign grid or catalog (malformed grid spec, unknown
    campaign id, unreadable catalog document...)."""
