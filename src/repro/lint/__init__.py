"""repro.lint — AST-based invariant checker for this repository.

The rules guard what the test suite does not catch: cache keys that
must stay stable across processes and hash seeds, store writes that
must survive a crash, and two import boundaries — the observability
package stays out of identity code, and scipy's iterative solvers stay
inside the certified backend seam.  It is stdlib-only by design: the
CI lint job runs ``python -m repro.lint src/repro`` without installing
the scientific stack.

Rule families (full catalog in ``docs/LINT.md``):

- **RL000** meta: a file that does not parse.
- **RL1xx** canonical hashing: hash-fed ``json.dumps`` must sort
  keys.
- **RL2xx** determinism: no wall clocks / global RNG state outside
  the ``created_at``/``last_used`` stamping allowlist; no iteration
  over raw sets into ordered output.
- **RL3xx** store atomicity: every write under ``repro.serving``,
  ``repro.daemon`` and ``repro.campaign`` goes through the
  unique-tmp+rename helper.
- **RL6xx** observability firewall: the execution-only ``repro.obs``
  package never reaches identity modules or ``canonical()`` /
  ``cache_key()`` forms, so instrumentation can never perturb a
  cache key.
- **RL7xx** solver-backend confinement: scipy's iterative solvers run
  only inside the certified backend seam
  (``repro.solver.backends``), where residuals are checked and
  failures fall back to the direct LU; no cache key carries a
  tolerance.

Every finding fails the run.  A deliberate exception to a rule is an
entry in :mod:`repro.lint.contracts` (the timestamp fields, the
clock-reading modules, the raw-file helpers, ...); comments silence
nothing.
"""

from repro.lint.diagnostics import Diagnostic, format_text
from repro.lint.registry import all_rules, get_rule

# Importing the rule modules registers every rule; the engine then
# discovers them through the registry.
from repro.lint import rules_identity  # noqa: F401
from repro.lint import rules_determinism  # noqa: F401
from repro.lint import rules_store  # noqa: F401
from repro.lint import rules_obs  # noqa: F401
from repro.lint import rules_solver  # noqa: F401

from repro.lint.engine import (
    FileContext,
    lint_files,
    lint_paths,
    lint_source,
)

__all__ = [
    "Diagnostic",
    "FileContext",
    "all_rules",
    "format_text",
    "get_rule",
    "lint_files",
    "lint_paths",
    "lint_source",
]
