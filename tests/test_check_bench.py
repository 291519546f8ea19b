"""Tests for the CI benchmark-regression gate (benchmarks/check_bench.py).

The gate is plain stdlib and lives outside the package; it is loaded
straight from its file so these tests exercise exactly what CI runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "benchmarks" / "check_bench.py")
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)

BASE = {
    "name": "demo",
    "profile": "fast",
    "solves_adaptive": 29,
    "solves_fixed": 161,
    "termination": "tol",
    "bitwise_identical": True,
    "std_rel_err": 1.0e-6,
    "mean_rel_err": 0.0,
    "speedup": 100.0,
    "solve_reduction": 5.551724137931035,
    "wall_adaptive_s": 4.2,
    "warm_obs_overhead": 1.004,
    "warm_query_calibrated": 1.5,
    "nested": {"grid_points": 29, "zero_weight_points": 0},
}


@pytest.fixture()
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    baseline.mkdir()
    fresh.mkdir()
    return baseline, fresh


def _write(directory, payload, name="BENCH_demo.json"):
    (directory / name).write_text(json.dumps(payload))


def _run(baseline, fresh):
    return check_bench.main(["--baseline", str(baseline),
                             "--fresh", str(fresh)])


class TestGatePasses:
    def test_identical_documents_pass(self, dirs, capsys):
        baseline, fresh = dirs
        _write(baseline, BASE)
        _write(fresh, BASE)
        assert _run(baseline, fresh) == 0
        assert "hold" in capsys.readouterr().out

    def test_wall_time_changes_ignored(self, dirs):
        baseline, fresh = dirs
        _write(baseline, BASE)
        _write(fresh, {**BASE, "wall_adaptive_s": 400.0})
        assert _run(baseline, fresh) == 0

    def test_error_jitter_within_slack_passes(self, dirs):
        baseline, fresh = dirs
        _write(baseline, BASE)
        _write(fresh, {**BASE, "std_rel_err": 1.5e-6,
                       "mean_rel_err": 5e-13})
        assert _run(baseline, fresh) == 0

    def test_speedup_above_floor_passes(self, dirs):
        baseline, fresh = dirs
        _write(baseline, BASE)
        _write(fresh, {**BASE, "speedup": 40.0})
        assert _run(baseline, fresh) == 0

    def test_calibrated_wall_within_slack_passes(self, dirs):
        # Calibrated walls may drift (and improve) freely up to twice
        # the baseline.
        baseline, fresh = dirs
        _write(baseline, BASE)
        for value in (0.5, 2.9):
            _write(fresh, {**BASE, "warm_query_calibrated": value})
            assert _run(baseline, fresh) == 0

    def test_overhead_under_ceiling_passes(self, dirs):
        # Overhead is an absolute gate: even an overhead well above
        # the baseline value passes as long as it stays under the
        # ceiling — yesterday's luck is not the contract.
        baseline, fresh = dirs
        _write(baseline, BASE)
        _write(fresh, {**BASE, "warm_obs_overhead": 1.049})
        assert _run(baseline, fresh) == 0

    def test_new_fields_and_documents_allowed(self, dirs, capsys):
        baseline, fresh = dirs
        _write(baseline, BASE)
        _write(fresh, {**BASE, "brand_new_metric": 7})
        _write(fresh, BASE, name="BENCH_other.json")
        assert _run(baseline, fresh) == 0
        out = capsys.readouterr().out
        assert "new field" in out
        assert "new bench" in out


class TestGateFails:
    @pytest.mark.parametrize("perturbation", [
        {"solves_adaptive": 30},              # solve counts are exact
        {"termination": "max_solves"},        # strings are exact
        {"bitwise_identical": False},         # booleans are exact
        {"std_rel_err": 5.0e-6},              # > 2x baseline
        {"mean_rel_err": 1.0e-9},             # > floor from exact 0
        {"speedup": 10.0},                    # < 30% of baseline
        {"warm_obs_overhead": 1.06},          # > absolute ceiling
        {"nested": {"grid_points": 31,
                    "zero_weight_points": 0}},
        {"warm_query_calibrated": 3.1},       # > 2x baseline
    ])
    def test_regressions_fail(self, dirs, perturbation, capsys):
        baseline, fresh = dirs
        _write(baseline, BASE)
        _write(fresh, {**BASE, **perturbation})
        assert _run(baseline, fresh) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_field_fails(self, dirs):
        baseline, fresh = dirs
        _write(baseline, BASE)
        stripped = {key: value for key, value in BASE.items()
                    if key != "std_rel_err"}
        _write(fresh, stripped)
        assert _run(baseline, fresh) == 1

    def test_missing_document_fails(self, dirs):
        baseline, fresh = dirs
        _write(baseline, BASE)
        assert _run(baseline, fresh) == 1

    def test_empty_baseline_dir_fails(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE)
        assert _run(baseline, fresh) == 1


class TestCommittedBaselines:
    def test_committed_baselines_compare_clean_to_themselves(self):
        """Every committed BENCH document passes the gate against
        itself — guards against rule/field-name drift making the gate
        vacuous or unsatisfiable."""
        output = REPO_ROOT / "benchmarks" / "output"
        baselines = sorted(output.glob("BENCH_*.json"))
        assert baselines, "no committed BENCH baselines"
        for path in baselines:
            document = json.loads(path.read_text())
            problems, _ = check_bench.compare_documents(
                path.stem, document, document)
            assert not problems, (path.name, problems)

    def test_committed_baselines_have_guarded_fields(self):
        """Each committed document must expose at least one exactly-
        guarded (integer) field, or the gate guards nothing."""
        output = REPO_ROOT / "benchmarks" / "output"

        def count_guarded(path, document):
            guarded = 0
            for key, value in document.items():
                if isinstance(value, dict):
                    guarded += count_guarded(f"{path}.{key}", value)
                elif isinstance(value, int) \
                        and not isinstance(value, bool) \
                        and check_bench.classify(
                            f"{path}.{key}") == "default":
                    guarded += 1
            return guarded

        for path in sorted(output.glob("BENCH_*.json")):
            document = json.loads(path.read_text())
            assert count_guarded(path.stem, document) > 0, path.name
