"""Benchmark profiles.

Every bench regenerates one of the paper's tables or figures.  Two
profiles are selectable with the ``REPRO_BENCH_PROFILE`` environment
variable:

* ``fast`` (default) — coarse meshes, reduced variable budgets and a
  few hundred Monte-Carlo runs: the whole suite finishes in minutes and
  still shows every qualitative shape the paper reports.
* ``paper`` — the paper's mesh scale, its reduced-variable counts
  (d = 22 for Table I, d = 34 for Table II) and a 10000-run Monte
  Carlo.  Expect hours, as the paper itself reports.

Rendered tables are also written to ``benchmarks/output/`` so the
numbers survive the pytest run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

# One BLAS thread per process, set before numpy loads it: pool workers
# fork from the bench process, and threaded BLAS in each of them
# starves the cores (2 workers ran 0.26x of serial on a 2-core host).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest  # noqa: E402

from repro.experiments import Table1Config, Table2Config  # noqa: E402
from repro.geometry import MetalPlugDesign, TsvDesign  # noqa: E402
from repro.solver.avsolver import NOMINAL_SLOT  # noqa: E402
from repro.units import um  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"

PROFILES = {
    "fast": {
        "table1": {
            "config": lambda: Table1Config(
                design=MetalPlugDesign(max_step=um(2.0)), rdf_nodes=16),
            "caps": {"plug1_interface": 2, "plug2_interface": 2,
                     "doping": 3},
            "mc_runs": 150,
        },
        "table2": {
            "config": lambda: Table2Config(
                design=TsvDesign(max_step=um(2.5), margin=um(2.5)),
                rdf_nodes=24),
            "caps_small": 2, "caps_merged": 2, "caps_doping": 2,
            "mc_runs": 150,
        },
        "fig1_samples": 30,
        "mc_seed": 20120316,  # DATE'12 started March 12-16, 2012
        "serving": {
            "params": {"max_step_um": 2.5, "margin_um": 2.5,
                       "rdf_nodes": 8},
            "cap_small": 1, "cap_merged": 1, "cap_doping": 1,
            "query_samples": 100000,
        },
        "daemon": {"store_entries": 1000, "concurrent_queries": 4},
    },
    "paper": {
        "table1": {
            # Paper scale: 32 interface + 72 RDF variables reduced to
            # 12 + 10 -> d = 22 (1035 paper runs / 1057 here).
            "config": lambda: Table1Config(
                design=MetalPlugDesign(max_step=um(1.0)), rdf_nodes=72),
            "caps": {"plug1_interface": 6, "plug2_interface": 6,
                     "doping": 10},
            "mc_runs": 10000,
        },
        "table2": {
            # Paper scale: groups reduced to 6 (merged/doping) and 4
            # (single facets) -> d = 34 (2415 paper runs / 2449 here).
            "config": lambda: Table2Config(
                design=TsvDesign(max_step=um(1.0)), rdf_nodes=128),
            "caps_small": 4, "caps_merged": 6, "caps_doping": 6,
            "mc_runs": 10000,
        },
        "fig1_samples": 200,
        "mc_seed": 20120316,
        "serving": {
            "params": {"max_step_um": 1.0, "margin_um": 3.0,
                       "rdf_nodes": 128},
            "cap_small": 4, "cap_merged": 6, "cap_doping": 6,
            "query_samples": 1000000,
        },
        "daemon": {"store_entries": 4000, "concurrent_queries": 8},
    },
}


@pytest.fixture(autouse=True)
def _empty_nominal_slot():
    """Start every bench with no shared nominal state, so the work it
    counts (factorizations, Newton steps, sparsity patterns) does not
    depend on which benches ran before it in the same process."""
    NOMINAL_SLOT.clear()


@pytest.fixture(scope="session")
def profile():
    name = os.environ.get("REPRO_BENCH_PROFILE", "fast")
    if name not in PROFILES:
        raise ValueError(
            f"REPRO_BENCH_PROFILE must be one of {sorted(PROFILES)}, "
            f"got {name!r}")
    return PROFILES[name]


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def write_report(output_dir: Path, name: str, text: str) -> None:
    """Persist a rendered table and echo it to the captured stdout."""
    path = output_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print("\n" + text)


def write_bench_json(output_dir: Path, name: str, payload: dict) -> Path:
    """Persist machine-readable benchmark results as ``BENCH_<name>.json``.

    The JSON sits next to the rendered ``.txt`` report so the perf
    trajectory (solve counts, wall times, speedups) can be diffed
    across PRs by tooling instead of by eye.  ``payload`` must be
    JSON-serializable; ``name`` and the active profile are stamped in.
    """
    path = output_dir / f"BENCH_{name}.json"
    document = {
        "name": name,
        "profile": os.environ.get("REPRO_BENCH_PROFILE", "fast"),
        **payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True)
                    + "\n")
    return path
