"""CAMPAIGN: chained sweep vs independent cold builds.

PR 4 benched one warm-started build against its cold twin; this bench
measures the full ``repro.campaign`` pipeline on the acceptance sweep:
a 4-point ``sigma_m`` doping sweep of the table2 preset at the
fast-profile mesh.  The campaign planner chains the members along the
nearest-neighbor order, so only the chain root pays the cold adaptive
build and every other member certifies from its predecessor's
accepted index set.

Measured and gated:

* **total solves** — the chained campaign must finish with strictly
  fewer PDE solves than building each member independently from a
  cold store (the ISSUE acceptance gate).
* **accuracy** — every warm-started member's surrogate is compared
  against its independently cold-built twin; scaled mean/std gaps
  must stay within the same bounds PR 4's warm-start bench asserts.
* **one nominal** — the chained campaign starts with no nominal in
  the process, and its four members, which share one structure,
  solve it once: ``nominal_solves_chained`` (1) and the LUs of the
  whole campaign, ``factorizations_chained`` (8: six Newton steps and
  the DC and AC references), are exact fields.

Results land in ``output/BENCH_campaign.json``.
"""

import time

import numpy as np

from repro.campaign import run_campaign
from repro.experiments import table2_spec
from repro.reporting import format_kv_block
from repro.serving import SurrogateStore, ensure_surrogate
from repro.solver.avsolver import _NOMINAL_SOLVES, NOMINAL_SLOT
from repro.solver.linear import _FACTORIZATIONS

from conftest import write_bench_json, write_report

#: The swept doping parameter values: 0.001-wide steps keep every hop
#: inside the warm-start drift budget, so the chain stays certified.
SIGMA_M_VALUES = (0.1, 0.101, 0.102, 0.103)
#: Adaptive tolerance of every member build (PR 4's warm-start tol).
TOL = 1e-5


def _table2_caps(problem, serving):
    caps = {}
    for group in problem.groups:
        if group.kind == "doping":
            caps[group.name] = serving["cap_doping"]
        elif "+" in group.name:
            caps[group.name] = serving["cap_merged"]
        else:
            caps[group.name] = serving["cap_small"]
    return caps


def _member_spec(profile, caps, sigma_m):
    params = dict(profile["serving"]["params"])
    return table2_spec(sigma_m=sigma_m, reduction={"caps": caps},
                       adaptive={"tol": TOL, "max_level": 2}, **params)


def test_campaign_vs_independent_builds(profile, output_dir, tmp_path):
    """Chained campaign: strictly fewer solves than 4 cold builds."""
    params = dict(profile["serving"]["params"])
    probe = table2_spec(**params).build_problem()
    caps = _table2_caps(probe, profile["serving"])

    # Independent baseline: each sweep point cold-built in its own
    # store, exactly what a user without campaigns would run.
    cold = {}
    start = time.perf_counter()
    for index, sigma_m in enumerate(SIGMA_M_VALUES):
        spec = _member_spec(profile, caps, sigma_m)
        store = SurrogateStore(tmp_path / f"cold{index}")
        cold[sigma_m] = ensure_surrogate(spec, store, warm_start=False)
    wall_independent = time.perf_counter() - start

    grid = {
        "preset": "table2",
        "base_params": params,
        "axes": {"sigma_m": list(SIGMA_M_VALUES)},
        "reduction": {"caps": caps,
                      "adaptive": {"tol": TOL, "max_level": 2}},
        "name": "bench-sigma-sweep",
    }
    campaign_store = SurrogateStore(tmp_path / "campaign")
    # The cold builds above left their shared nominal in the process;
    # the campaign starts without one, as a fresh process does.
    NOMINAL_SLOT.clear()
    factorizations = _FACTORIZATIONS.value()
    nominal_solves = _NOMINAL_SOLVES.value()
    start = time.perf_counter()
    catalog = run_campaign(grid, campaign_store)
    wall_chained = time.perf_counter() - start
    factorizations = int(_FACTORIZATIONS.value() - factorizations)
    nominal_solves = int(_NOMINAL_SOLVES.value() - nominal_solves)

    solves_independent = sum(r.num_solves for r in cold.values())
    totals = catalog["totals"]
    members = {}
    for row in catalog["members"]:
        sigma_m = row["params"]["sigma_m"]
        twin = cold[sigma_m].record
        record = campaign_store.get(row["key"])
        scale = float(np.max(np.abs(twin.pce.mean)))
        members[f"{sigma_m:g}"] = {
            "solves_cold": int(cold[sigma_m].num_solves),
            "solves_chained": int(row["num_solves"]),
            "termination": row["termination"],
            "warm": row["warm_source"] is not None,
            "mean_scaled_gap": float(np.max(np.abs(
                record.pce.mean - twin.pce.mean)) / scale),
            "std_scaled_gap": float(np.max(np.abs(
                record.pce.std - twin.pce.std)) / scale),
        }

    stats = {
        "points": len(SIGMA_M_VALUES),
        "tol": TOL,
        "sigma_m_values": list(SIGMA_M_VALUES),
        "solves_independent": int(solves_independent),
        "solves_chained": int(totals["total_solves"]),
        "solve_speedup": solves_independent / totals["total_solves"],
        "warm_started": int(totals["warm_started"]),
        "failed": int(totals["failed"]),
        "factorizations_chained": factorizations,
        "nominal_solves_chained": nominal_solves,
        "wall_independent_s": wall_independent,
        "wall_chained_s": wall_chained,
        "members": members,
    }

    rows = [
        (f"independent cold builds ({stats['points']} points)",
         f"{stats['solves_independent']} solves "
         f"{wall_independent:.1f}s"),
        ("chained campaign",
         f"{stats['solves_chained']} solves {wall_chained:.1f}s "
         f"({stats['solve_speedup']:.2f}x fewer, "
         f"{stats['warm_started']} warm-started)"),
        ("chained campaign's nominal",
         f"{nominal_solves} nominal solve(s), {factorizations} LUs"),
    ]
    for label in sorted(members, key=float):
        member = members[label]
        rows.append(
            (f"sigma_m={label}",
             f"{member['solves_cold']} cold -> "
             f"{member['solves_chained']} chained "
             f"[{member['termination']}], gaps "
             f"{member['mean_scaled_gap']:.1e} / "
             f"{member['std_scaled_gap']:.1e}"))
    write_report(output_dir, "bench_campaign",
                 format_kv_block(rows, title="campaign sweep"))
    write_bench_json(output_dir, "campaign", stats)

    # The ISSUE acceptance gate: chaining must beat independent cold
    # builds on total solves, not just wall time.
    assert stats["solves_chained"] < stats["solves_independent"]
    assert stats["warm_started"] >= 1
    assert stats["failed"] == 0
    # One structure, one nominal solve for the whole sweep.
    assert stats["nominal_solves_chained"] == 1
    for row in catalog["members"]:
        if row["warm_source"] is not None:
            assert (row["warm_source"].split(":")[0]
                    == row["planned_warm_source"])
    for member in members.values():
        assert member["mean_scaled_gap"] <= 1e-4
        assert member["std_scaled_gap"] <= 1e-3
