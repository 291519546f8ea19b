#!/usr/bin/env python
"""Benchmark-regression gate: fresh BENCH_*.json vs committed baselines.

The benches under ``benchmarks/`` persist machine-readable results as
``benchmarks/output/BENCH_<name>.json`` — solve counts, accuracy
figures, speedups, grid bookkeeping.  Those files are committed, which
makes them a perf *trajectory*; this script is the guard that keeps
the trajectory honest.  CI snapshots the committed JSONs before
running the benches, then compares the freshly produced ones against
the snapshot:

* **exact fields** — integers (solve counts, grid/zero-weight points,
  dims, basis sizes), booleans (``bitwise_identical``) and strings
  (``termination``, ``profile``) must match the baseline exactly.  A
  changed solve count is a changed algorithm and must arrive together
  with a refreshed, reviewed baseline.
* **error fields** (name contains ``rel_err`` / ``gap`` / ``drift`` /
  ``mismatch`` / ``error``) — the fresh value may not exceed
  ``max(2 x baseline, 1e-12)``; the floor absorbs roundoff-scale
  jitter, the factor catches real accuracy regressions.
* **speedup fields** — wall-clock-derived and therefore machine-
  dependent; the fresh value must stay above 30% of the baseline
  (a collapsed speedup means a hot path got slow).
* **calibrated fields** (name contains ``calibrated``) — a wall time
  divided by a reference kernel the bench times beside it, so most
  of the machine's speed cancels; the fresh value may not exceed
  2 x the baseline (a path that got twice as slow).
* **overhead fields** (name contains ``overhead``) — ratios of
  instrumented to uninstrumented wall time; gated against an absolute
  ceiling (1.05) rather than the baseline, because the contract is
  "observability stays near-free", not "costs what it cost
  yesterday".  The ceiling is the 2% contract plus measured
  per-process scheduler/layout noise (±3% on millisecond-scale warm
  paths); the exact <2% bound is asserted noise-free inside the bench
  itself from component costs.
* **ignored fields** — raw wall times, CPU counts, peak RSS (a
  process's memory follows its host and allocator), timestamps.
* other floats fall back to a tight relative tolerance.

Fields missing from a fresh document, or whole missing documents, are
regressions; *new* fields and new documents are reported but allowed
(they appear when a PR adds a bench, together with its baseline).

Usage::

    python benchmarks/check_bench.py --baseline /tmp/bench-baseline \
        [--fresh benchmarks/output]

Exit status 0 when everything holds, 1 on any regression.  Pure
stdlib, importable for tests (``compare_documents``, ``main``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Substrings marking fields that are never compared.
IGNORE_TOKENS = ("wall", "cpu_count", "rss", "created")
#: Substrings marking accuracy fields (smaller is better).
ERROR_TOKENS = ("rel_err", "gap", "drift", "mismatch", "error")
#: Accuracy fields may grow to this multiple of the baseline ...
ERROR_SLACK = 2.0
#: ... or to this absolute floor, whichever is larger (roundoff noise).
ERROR_FLOOR = 1e-12
#: Wall-derived speedups must keep this fraction of the baseline.
SPEEDUP_FLOOR = 0.3
#: Calibrated walls may grow to this multiple of the baseline.
CALIBRATED_SLACK = 2.0
#: Overhead ratios (instrumented / uninstrumented wall) must stay
#: below this absolute ceiling — the baseline value is irrelevant.
#: 1.05 = the 2% observability contract plus the ±3% wall-clock noise
#: floor that per-process layout/hash-seed bias imposes on
#: millisecond-scale A/B comparisons; the strict <2% contract is
#: asserted componentwise (noise-free) in the bench that produces
#: these fields.
OVERHEAD_CEILING = 1.05
#: Default relative tolerance for unclassified float fields.
FLOAT_RTOL = 1e-9


def classify(name: str) -> str:
    """Comparison rule of a field, by its (dotted-path) leaf name."""
    leaf = name.rsplit(".", 1)[-1]
    if any(token in leaf for token in IGNORE_TOKENS):
        return "ignore"
    if "calibrated" in leaf:
        return "calibrated"
    if "speedup" in leaf:
        return "speedup"
    if "overhead" in leaf:
        return "overhead"
    if any(token in leaf for token in ERROR_TOKENS):
        return "error"
    return "default"


def _compare_number(path: str, fresh, base, problems: list) -> None:
    rule = classify(path)
    if rule == "ignore":
        return
    if isinstance(base, bool) or isinstance(fresh, bool):
        if fresh is not base:
            problems.append(f"{path}: {fresh!r} != baseline {base!r}")
        return
    if rule == "error":
        ceiling = max(ERROR_SLACK * abs(base), ERROR_FLOOR)
        if abs(fresh) > ceiling:
            problems.append(
                f"{path}: {fresh:.6g} exceeds {ceiling:.6g} "
                f"(baseline {base:.6g} x {ERROR_SLACK}, "
                f"floor {ERROR_FLOOR})")
        return
    if rule == "speedup":
        floor = SPEEDUP_FLOOR * base
        if fresh < floor:
            problems.append(
                f"{path}: speedup {fresh:.3g} fell below {floor:.3g} "
                f"(baseline {base:.3g} x {SPEEDUP_FLOOR})")
        return
    if rule == "calibrated":
        ceiling = CALIBRATED_SLACK * base
        if fresh > ceiling:
            problems.append(
                f"{path}: calibrated wall {fresh:.3g} exceeds "
                f"{ceiling:.3g} (baseline {base:.3g} x "
                f"{CALIBRATED_SLACK})")
        return
    if rule == "overhead":
        if fresh > OVERHEAD_CEILING:
            problems.append(
                f"{path}: overhead ratio {fresh:.4g} exceeds the "
                f"absolute ceiling {OVERHEAD_CEILING} (instrumentation "
                f"must stay near-free on the uninstrumented wall)")
        return
    if isinstance(base, int) and isinstance(fresh, int):
        if fresh != base:
            problems.append(f"{path}: {fresh} != baseline {base}")
        return
    tolerance = FLOAT_RTOL * max(abs(base), 1e-300)
    if abs(fresh - base) > tolerance + 1e-300:
        problems.append(
            f"{path}: {fresh!r} != baseline {base!r} "
            f"(rtol {FLOAT_RTOL})")


def _compare_values(path: str, fresh, base, problems: list,
                    notes: list) -> None:
    if isinstance(base, dict):
        if not isinstance(fresh, dict):
            problems.append(
                f"{path}: expected a mapping, got "
                f"{type(fresh).__name__}")
            return
        for key in sorted(base):
            child = f"{path}.{key}"
            if key not in fresh:
                if classify(child) != "ignore":
                    problems.append(f"{child}: missing from fresh "
                                    f"result")
                continue
            _compare_values(child, fresh[key], base[key], problems,
                            notes)
        for key in sorted(set(fresh) - set(base)):
            notes.append(f"{path}.{key}: new field (no baseline)")
        return
    if isinstance(base, (int, float)) and not isinstance(base, bool) \
            and isinstance(fresh, (int, float)) \
            and not isinstance(fresh, bool):
        _compare_number(path, fresh, base, problems)
        return
    if classify(path) == "ignore":
        return
    if fresh != base:
        problems.append(f"{path}: {fresh!r} != baseline {base!r}")


def compare_documents(name: str, fresh: dict, base: dict) -> tuple:
    """``(problems, notes)`` of one BENCH document pair."""
    problems, notes = [], []
    _compare_values(name, fresh, base, problems, notes)
    return problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh BENCH_*.json against committed "
                    "baselines; exit 1 on regression")
    parser.add_argument("--baseline", required=True,
                        help="directory holding the baseline "
                             "BENCH_*.json files (e.g. a pre-bench "
                             "snapshot of benchmarks/output)")
    parser.add_argument("--fresh",
                        default=str(Path(__file__).parent / "output"),
                        help="directory holding the freshly produced "
                             "BENCH_*.json files "
                             "(default: benchmarks/output)")
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    fresh_dir = Path(args.fresh)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines under {baseline_dir}")
        return 1

    problems, notes = [], []
    for base_path in baselines:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            problems.append(f"{base_path.name}: not produced by this "
                            f"bench run")
            continue
        try:
            base = json.loads(base_path.read_text())
            fresh = json.loads(fresh_path.read_text())
        except ValueError as exc:
            problems.append(f"{base_path.name}: unreadable JSON "
                            f"({exc})")
            continue
        doc_problems, doc_notes = compare_documents(
            base_path.stem, fresh, base)
        problems.extend(doc_problems)
        notes.extend(doc_notes)
    for fresh_path in sorted(fresh_dir.glob("BENCH_*.json")):
        if not (baseline_dir / fresh_path.name).exists():
            notes.append(f"{fresh_path.name}: new bench (no baseline)")

    for note in notes:
        print(f"note: {note}")
    if problems:
        print(f"\n{len(problems)} benchmark regression(s):")
        for problem in problems:
            print(f"  FAIL {problem}")
        return 1
    print(f"benchmark gate: {len(baselines)} baseline document(s) "
          f"hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
