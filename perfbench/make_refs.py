"""Regenerate the benchmark's committed reference answers.

Usage, from the repository root::

    python3 perfbench/make_refs.py

Writes ``perfbench/refs/builds.json`` (mean and std of every surrogate
the build workloads produce, built once here, plus the per-op layer
counts the traced run's wiring check expects) and
``perfbench/refs/warm_answers.json`` (every answer the ``warm_query``
workload can ask of its surrogate bank).  Regenerate only when a
change is *meant* to move these numbers, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

# Same interpreter set-up as a benchmark run: the program on sys.path
# and one BLAS thread.
import run  # noqa: E402
import warmgen  # noqa: E402
import workloads  # noqa: E402

#: Per-op layer counts of the traced run, measured independently of
#: this benchmark's wrappers before they existed.  A mismatch means a
#: wrapper is bound at the wrong site, or a change moved the count.
LAYER_COUNTS = {
    "tsv_campaign": {
        "solver.dc.calls": 176,
        "solver.dc.linear_solves": 1056,
        "solver.ac.factorizations": 176,
        "extraction.conductor_labels_calls": 1032,
        "campaign.warm_started": 3,
    },
    "plug_cold_build": {
        "solver.dc.calls": 128,
        "solver.dc.linear_solves": 512,
        "solver.ac.factorizations": 128,
    },
}


def _stats(pce) -> dict:
    return {"mean": pce.mean.tolist(), "std": pce.std.tolist()}


def build_refs(workdir: Path) -> dict:
    tsv = workloads.TsvCampaign(0, workdir)
    tsv.setup()
    store, catalog = tsv.op()
    tsv_refs = {}
    for row in catalog["members"]:
        entry = _stats(store.get(row["key"]).pce)
        entry["num_solves"] = row["num_solves"]
        tsv_refs[repr(row["params"]["sigma_m"])] = entry
    plug = workloads.PlugColdBuild(0, workdir)
    plug.setup()
    _, report = plug.op()
    plug_refs = {**_stats(report.record.pce),
                 "num_solves": report.num_solves}
    return {"tsv_campaign": tsv_refs, "plug_cold_build": plug_refs,
            "layer_counts": LAYER_COUNTS}


def _write(name: str, document: dict) -> None:
    path = workloads.REFS_DIR / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> int:
    run.RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=str(run.RUNS_DIR)))
    try:
        _write("builds.json", build_refs(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _write("warm_answers.json", warmgen.reference_answers())
    return 0


if __name__ == "__main__":
    sys.exit(main())
