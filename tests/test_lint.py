"""repro.lint: each rule catches its seeded bad fixture and passes
the matching good one, a ``# repro-lint:`` comment silences nothing,
and the real tree is clean.

Three layers:

* **fixture pairs** — for every rule family, one snippet that must
  trigger the rule and one (the sanctioned idiom) that must not;
* **mutation tests** — the actual ``store.py`` source with its
  atomic write replaced by bare ``open`` must fail the lint;
* **integration** — ``src/repro`` lints clean, the CLI's exit codes
  hold, and the checker imports without the scientific stack (the CI
  lint job installs none of it).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import lint_files

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
SPEC_PY = SRC_TREE / "serving" / "spec.py"
STORE_PY = SRC_TREE / "serving" / "store.py"


def lint_snippet(source, path="src/repro/pkg/mod.py", select=None):
    """Lint one dedented snippet as if it lived at ``path``; with
    ``select``, keep only that rule's findings."""
    diagnostics = lint_source(textwrap.dedent(source), path=path)
    if select is None:
        return diagnostics
    return [d for d in diagnostics if d.rule == select]


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


# ----------------------------------------------------------------------
# RL1xx — canonical hashing


class TestUnsortedHashJson:
    def test_dumps_inside_hash_constructor_is_flagged(self):
        diagnostics = lint_snippet("""
            import hashlib
            import json

            def fingerprint(data):
                return hashlib.sha256(
                    json.dumps(data).encode()).hexdigest()
        """)
        assert rules_of(diagnostics) == ["RL103"]

    def test_dumps_in_cache_key_function_is_flagged(self):
        diagnostics = lint_snippet("""
            import json

            def cache_key(data):
                return json.dumps(data)
        """)
        assert rules_of(diagnostics) == ["RL103"]

    def test_sort_keys_true_passes(self):
        diagnostics = lint_snippet("""
            import hashlib
            import json

            def cache_key(data):
                blob = json.dumps(data, sort_keys=True,
                                  separators=(",", ":"))
                return hashlib.sha256(blob.encode()).hexdigest()
        """)
        assert diagnostics == []

    def test_plain_serialization_is_left_alone(self):
        diagnostics = lint_snippet("""
            import json

            def render(report):
                return json.dumps(report, indent=2)
        """)
        assert diagnostics == []


# ----------------------------------------------------------------------
# RL2xx — determinism


class TestNondeterministicCall:
    def test_wall_clock_outside_stamp_slot_is_flagged(self):
        diagnostics = lint_snippet("""
            import time

            def label(run):
                return f"{run}-{time.time()}"
        """)
        assert rules_of(diagnostics) == ["RL201"]

    def test_import_alias_cannot_dodge_the_rule(self):
        diagnostics = lint_snippet("""
            import time as _t

            def label(run):
                return _t.time()
        """)
        assert rules_of(diagnostics) == ["RL201"]

    def test_bare_random_and_legacy_numpy_rng_are_flagged(self):
        diagnostics = lint_snippet("""
            import random

            import numpy as np

            def jitter(values):
                np.random.seed(0)
                return values + random.random()
        """)
        assert rules_of(diagnostics) == ["RL201", "RL201"]

    def test_timestamp_stamping_sites_are_allowlisted(self):
        diagnostics = lint_snippet("""
            import time

            def stamp(record, make):
                created_at = time.time()
                record["last_used"] = time.time()
                return make(created_at=time.time()), created_at
        """)
        assert diagnostics == []

    def test_seeded_generation_passes(self):
        diagnostics = lint_snippet("""
            import numpy as np

            def sample(seed, n):
                return np.random.default_rng(seed).normal(size=n)
        """)
        assert diagnostics == []


class TestUnorderedSetIteration:
    def test_for_loop_over_set_literal_is_flagged(self):
        diagnostics = lint_snippet("""
            def names(out):
                for name in {"cu", "sio2", "si"}:
                    out.append(name)
        """)
        assert rules_of(diagnostics) == ["RL202"]

    def test_list_of_set_materializes_hash_order(self):
        diagnostics = lint_snippet("""
            def order(items):
                return list(set(items))
        """)
        assert rules_of(diagnostics) == ["RL202"]

    def test_sorted_set_passes(self):
        diagnostics = lint_snippet("""
            def order(items):
                return [name for name in sorted(set(items))]
        """)
        assert diagnostics == []


# ----------------------------------------------------------------------
# RL3xx — store atomicity (scoped to repro.serving + repro.daemon)

STORE_FIXTURE_PATH = "src/repro/serving/fake.py"
DAEMON_FIXTURE_PATH = "src/repro/daemon/fake.py"


class TestNonatomicStoreWrite:
    def test_bare_open_write_in_serving_is_flagged(self):
        diagnostics = lint_snippet("""
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
        """, path=STORE_FIXTURE_PATH)
        assert rules_of(diagnostics) == ["RL301"]

    def test_pathlib_write_text_in_serving_is_flagged(self):
        diagnostics = lint_snippet("""
            def save(path, text):
                path.write_text(text)
        """, path=STORE_FIXTURE_PATH)
        assert rules_of(diagnostics) == ["RL301"]

    def test_atomic_helper_body_is_exempt(self):
        diagnostics = lint_snippet("""
            import os
            import tempfile

            def _atomic_write(path, payload):
                fd, tmp = tempfile.mkstemp(dir=path.parent)
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
        """, path=STORE_FIXTURE_PATH)
        assert diagnostics == []

    def test_reads_are_fine(self):
        diagnostics = lint_snippet("""
            def load(path):
                with open(path, "rb") as handle:
                    return handle.read()
        """, path=STORE_FIXTURE_PATH)
        assert diagnostics == []

    def test_rule_is_scoped_to_the_serving_layer(self):
        diagnostics = lint_snippet("""
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
        """, path="src/repro/reporting/fake.py")
        assert diagnostics == []

    def test_daemon_layer_is_patrolled_too(self):
        diagnostics = lint_snippet("""
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
        """, path=DAEMON_FIXTURE_PATH)
        assert rules_of(diagnostics) == ["RL301"]

    def test_lock_anchor_opener_is_exempt_by_contract(self):
        # contracts.RAW_FILE_HELPERS names singleflight's opener of
        # the zero-byte flock anchors, which are never written.
        diagnostics = lint_snippet("""
            import os

            def _open_lock_anchor(path):
                return os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        """, path=DAEMON_FIXTURE_PATH)
        assert diagnostics == []

    def test_raw_os_open_elsewhere_in_daemon_is_flagged(self):
        diagnostics = lint_snippet("""
            import os

            def spill(path):
                return os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        """, path=DAEMON_FIXTURE_PATH)
        assert rules_of(diagnostics) == ["RL301"]


# ----------------------------------------------------------------------
# RL6xx — observability firewall


class TestObsFirewall:
    def test_obs_import_in_identity_module_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs.metrics import counter
        """, path="src/repro/serving/spec.py", select="RL601")
        assert rules_of(diagnostics) == ["RL601"]
        assert "execution-only" in diagnostics[0].message

    def test_plain_import_form_is_flagged_too(self):
        diagnostics = lint_snippet("""
            import repro.obs.trace
        """, path="src/repro/serving/spec.py", select="RL601")
        assert rules_of(diagnostics) == ["RL601"]

    def test_execution_modules_may_import_obs(self):
        diagnostics = lint_snippet("""
            from repro.obs.metrics import counter
            HITS = counter("repro_x_total", "doc")
        """, path="src/repro/serving/pipeline.py", select="RL601")
        assert diagnostics == []

    def test_obs_call_inside_canonical_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs.trace import span

            def canonical(self):
                with span("canonicalize"):
                    return {"tol": self.tol}
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]
        assert "canonical()" in diagnostics[0].message

    def test_obs_attribute_call_inside_cache_key_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs import metrics

            def cache_key(self):
                metrics.counter("repro_keys_total", "doc").inc()
                return self.digest()
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]

    def test_late_import_inside_to_dict_is_flagged(self):
        diagnostics = lint_snippet("""
            def to_dict(self):
                from repro.obs.metrics import counter
                return {}
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]

    def test_obs_name_reference_inside_identity_form_is_flagged(self):
        diagnostics = lint_snippet("""
            from repro.obs.trace import NULL_TRACER

            def to_dict(self):
                return {"tracer": NULL_TRACER}
        """, select="RL602")
        assert rules_of(diagnostics) == ["RL602"]

    def test_obs_usage_outside_identity_functions_is_fine(self):
        diagnostics = lint_snippet("""
            from repro.obs.trace import span

            def build(self):
                with span("build"):
                    return self.solve()
        """, select="RL602")
        assert diagnostics == []

    def test_clock_exempt_modules_skip_rl201(self):
        snippet = """
            import time

            def stamp():
                return time.time()
        """
        exempt = lint_snippet(snippet, path="src/repro/obs/trace.py",
                              select="RL201")
        assert exempt == []
        elsewhere = lint_snippet(snippet,
                                 path="src/repro/obs/metrics.py",
                                 select="RL201")
        assert rules_of(elsewhere) == ["RL201"]


# ----------------------------------------------------------------------
# RL7xx — iterative-solver confinement


class TestIterativeSolverConfinement:
    def test_iterative_import_outside_seam_is_flagged(self):
        diagnostics = lint_snippet("""
            from scipy.sparse.linalg import gmres
        """, path="src/repro/solver/sweep.py", select="RL701")
        assert rules_of(diagnostics) == ["RL701"]
        assert "backend seam" in diagnostics[0].message

    def test_iterative_call_outside_seam_is_flagged(self):
        diagnostics = lint_snippet("""
            import scipy.sparse.linalg as spla

            def solve(matrix, rhs):
                x, info = spla.bicgstab(matrix, rhs, rtol=1e-6)
                return x
        """, path="src/repro/analysis/runner.py", select="RL701")
        assert rules_of(diagnostics) == ["RL701"]

    def test_backend_seam_may_run_iterative_solvers(self):
        diagnostics = lint_snippet("""
            from scipy.sparse.linalg import bicgstab, gmres

            def attempt(matrix, rhs):
                return gmres(matrix, rhs, rtol=1e-10)
        """, path="src/repro/solver/backends.py", select="RL701")
        assert diagnostics == []

    def test_direct_solvers_are_not_confined(self):
        # splu/spsolve are the direct path — usable anywhere.
        diagnostics = lint_snippet("""
            from scipy.sparse.linalg import splu, spsolve
        """, path="src/repro/solver/linear.py", select="RL701")
        assert diagnostics == []


# ----------------------------------------------------------------------
# Suppression directives: there are none


class TestSuppressions:
    """A ``# repro-lint:`` comment is an ordinary comment: it silences
    no finding and is reported by no rule.  An exception to a rule is
    an entry in ``repro.lint.contracts``."""

    @pytest.mark.parametrize("source, expected", [
        pytest.param("""
            import time

            def label(run):
                return time.time()  # repro-lint: disable=RL201 -- fixture exercises the trace replay path
        """, ["RL201"], id="trailing"),
        pytest.param("""
            import time

            def label(run):
                # repro-lint: disable=RL201 -- replaying a recorded trace
                return time.time()
        """, ["RL201"], id="standalone"),
        pytest.param("""
            import time

            def label(run):
                return time.time()  # repro-lint: disable=RL201
        """, ["RL201"], id="no-reason"),
        pytest.param("""
            x = 1  # repro-lint: disable=RL999 -- no such rule
        """, [], id="unknown-rule"),
        pytest.param("""
            x = 1  # repro-lint: disable=RL201 -- nothing here anymore
        """, [], id="stale"),
        pytest.param("""
            x = 1  # repro-lint: enable=RL201
        """, [], id="malformed"),
    ])
    def test_directive_is_an_ordinary_comment(self, source, expected):
        assert rules_of(lint_snippet(source)) == expected

    def test_unparseable_file_reports_rl000(self):
        diagnostics = lint_snippet("""
            def broken(:
                pass
        """)
        assert rules_of(diagnostics) == ["RL000"]


# ----------------------------------------------------------------------
# Mutation tests: breaking the real invariants must fail the lint


class TestRealSourceMutations:
    def test_spec_and_store_lint_clean_as_written(self):
        assert lint_files([SPEC_PY, STORE_PY]) == []

    def test_replacing_the_atomic_write_with_bare_open_fails(self):
        source = STORE_PY.read_text()
        target = "self._atomic_write(payload_path, payload)"
        assert target in source
        mutated = source.replace(
            target, 'open(payload_path, "wb").write(payload)')
        diagnostics = lint_source(mutated, path=str(STORE_PY))
        assert rules_of(diagnostics) == ["RL301"]

    def test_store_timestamp_stamping_needs_no_suppressions(self):
        # save()/touch() stamp created_at/last_used with time.time();
        # the allowlist must cover them without inline directives.
        assert "repro-lint" not in STORE_PY.read_text()
        assert [d for d in lint_files([STORE_PY])
                if d.rule == "RL201"] == []


# ----------------------------------------------------------------------
# Integration: the tree is clean, the CLI behaves, stdlib-only import


class TestTreeIsClean:
    def test_src_repro_lints_clean(self):
        diagnostics = lint_paths([str(SRC_TREE)])
        assert diagnostics == [], "\n".join(
            f"{d.file}:{d.line}: {d.rule} {d.message}"
            for d in diagnostics)


class TestCli:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--help"])
        assert excinfo.value.code == 0
        assert "docs/LINT.md" in capsys.readouterr().out

    def test_list_rules_names_every_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        # Retired ids (docs/LINT.md, "Retired rules") are absent.
        assert listed == ["RL000", "RL103", "RL201", "RL202", "RL301",
                          "RL601", "RL602", "RL701"]

    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([str(SRC_TREE / "units.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["no/such/tree"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:2:8: RL201: nondeterministic" in out


class TestStdlibOnly:
    def test_checker_runs_with_the_scientific_stack_blocked(self):
        # The CI lint job installs no numpy/scipy; importing the
        # package through the lazy top-level __init__ and linting a
        # snippet must work with both hard-blocked.
        probe = textwrap.dedent("""
            import sys

            class _Block:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] in ("numpy", "scipy"):
                        raise ImportError(f"blocked: {name}")
                    return None

            sys.meta_path.insert(0, _Block())

            import repro
            from repro.lint import lint_source

            diagnostics = lint_source(
                "import random\\nx = random.random()\\n",
                path="src/repro/x.py")
            assert [d.rule for d in diagnostics] == ["RL201"], \\
                diagnostics
            print("stdlib-only: ok")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "stdlib-only: ok" in result.stdout
