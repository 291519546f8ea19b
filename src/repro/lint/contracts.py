"""The repo's machine-checked invariant contracts.

This module is the single declared source of truth the rule families
check against, and the only place an exception to a rule can live.
When a change adds a new timestamp field, identity module, store
layer or raw-file helper, it must be registered here — the lint rules
read these tables, so the registration *is* the enforcement.
Everything here mirrors an invariant the repo documents
(docs/ARCHITECTURE.md, docs/OBSERVABILITY.md, the spec/store
docstrings); docs/LINT.md catalogues the rules built on top.
"""

from __future__ import annotations

#: Function names that produce identity forms.  RL602 keeps the
#: observability package out of their bodies.
IDENTITY_FUNCTIONS = ("canonical", "to_dict", "cache_key")

#: The only slots wall-clock time may flow into: usage/provenance
#: stamps that are deliberately *not* part of any identity or result.
TIMESTAMP_FIELDS = frozenset({"created_at", "last_used",
                              "updated_at"})

#: Modules whose *job* is reading the clock: the span tracer stamps
#: wall/monotonic origins on every span and the structured event log
#: timestamps every record.  Both live strictly on the execution side
#: of the identity firewall (see OBS_PACKAGE below), so RL201's
#: wall-clock ban does not apply inside them — anywhere else it does.
CLOCK_EXEMPT_MODULES = ("repro.obs.log", "repro.obs.trace")

#: The observability package.  Everything under it is execution-only
#: by contract: counters, spans and logs describe how a build *ran*,
#: never what it *is*.  RL601 keeps it out of identity forms — an
#: identity module importing repro.obs, or an identity function
#: (IDENTITY_FUNCTIONS) touching it, would put instrumentation one
#: refactor away from perturbing a cache key.
OBS_PACKAGE = "repro.obs"

#: Modules that define surrogate identity (canonical forms feeding
#: cache keys).  They must not import the observability package at
#: all; execution modules may, but never inside IDENTITY_FUNCTIONS.
IDENTITY_MODULES = ("repro.serving.spec",)

#: Fully-qualified callables that read ambient nondeterministic state.
#: ``random.*`` and legacy ``numpy.random.*`` are matched by prefix
#: (see rules_determinism); these are the exact-name bans.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
})

#: Legacy module-level numpy RNG entry points (global mutable state —
#: never reproducible across call orders).  ``default_rng`` /
#: ``Generator`` / ``SeedSequence`` are the sanctioned replacements.
LEGACY_NP_RANDOM = frozenset({
    "seed", "rand", "randn", "random", "randint", "random_integers",
    "random_sample", "ranf", "sample", "choice", "shuffle",
    "permutation", "normal", "standard_normal", "uniform", "get_state",
    "set_state",
})

#: Hash constructors whose input must be canonical (sorted-key) JSON
#: when it comes from ``json.dumps``.
HASH_CONSTRUCTORS = frozenset({
    "hashlib.sha256", "hashlib.sha1", "hashlib.sha512", "hashlib.md5",
    "hashlib.blake2b", "hashlib.blake2s", "hashlib.new",
})

#: Modules patrolled by the store-atomicity family: every persistent
#: write under the store layer — serving, the daemon subsystem that
#: mutates the same store (gc, server) *and* the campaign
#: layer that writes catalogs into it — must go through the
#: unique-tmp+rename helper, or a torn write becomes silently wrong
#: statistics.
STORE_LAYER_PREFIXES = ("repro.serving", "repro.daemon",
                        "repro.campaign")

#: A function whose name contains one of these substrings may call
#: raw file APIs under the store layer; RL301 skips its body.  Two
#: jobs need that: the unique-tmp+rename helper (``atomic_write``) and
#: the opener of the daemon's build locks (``_open_lock_anchor`` in
#: ``repro.daemon.singleflight``), whose zero-byte flock anchors are
#: never written, so a crash cannot tear them.
RAW_FILE_HELPERS = ("atomic_write", "_open_lock_anchor")

#: The only modules allowed to touch scipy's iterative solvers.  The
#: backend seam (``SolverBackend``) is where an iterative solution
#: gets certified — explicit residual check, LU fallback on
#: non-convergence, labeled counters.  No tolerance is part of a cache
#: key, so an iterative solver anywhere else would let an uncertified
#: tolerance class leak into stored results under a direct-solve key.
ITERATIVE_SOLVER_HOME_MODULES = ("repro.solver.backends",)

#: The scipy.sparse.linalg entry points the confinement rule patrols.
ITERATIVE_SOLVER_NAMES = frozenset({
    "bicg", "bicgstab", "cg", "cgs", "gcrotmk", "gmres", "lgmres",
    "minres", "qmr", "tfqmr", "lsqr", "lsmr",
})
