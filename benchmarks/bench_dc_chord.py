"""DC CHORD: perturbed-sample equilibria through the nominal DC factor.

Every collocation sample of a stochastic build re-solves the nonlinear
Poisson equilibrium (the paper's eq. 8 at zero bias).  The RDF and
geometry perturbations move the DC Jacobian only slightly, so the
solver iterates each perturbed sample through one LU factor of the
*nominal* sample's converged Jacobian (a chord Newton) instead of
factorizing a fresh Jacobian at every Newton step (docs/SOLVER.md,
"The DC equilibrium").

This bench solves the same seeded perturbed samples of the fast-mesh
Table II TSV twice — by full Newton and by the chord — and reports
the factorizations each path pays, the chord's fallbacks to Newton,
the largest potential gap between the two answers and the DC wall
speedup, and the fill of the nominal DC factor every chord step
back-substitutes through (``reference_fill``, SuperLU's stored entries
of L and U).  Expected shape: no factorization and no fallback on the
chord path, potentials within ~1e-13 V, and a several-fold speedup.
"""

import time

import numpy as np
import pytest

from repro.experiments import table2_spec
from repro.solver.dc import solve_equilibrium
from repro.solver.linear import _FACTORIZATIONS
from repro.solver.newton import _CHORD_FALLBACKS
from repro.variation.random_field import stable_cholesky

from conftest import write_bench_json, write_report

SAMPLES = 24
SEED = 20120316


def _perturbed_samples(problem, count: int, seed: int) -> list:
    """``(geometry, doping profile)`` of ``count`` full-covariance
    perturbation draws."""
    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        xi = {group.name: factors[group.name]
              @ rng.standard_normal(group.size)
              for group in problem.groups}
        geometry, doping = problem._sample_inputs(xi)
        samples.append((problem.solver.geometry_for(geometry), doping))
    return samples


def _timed_solve(structure, geometry, doping, reference):
    """``(equilibrium, wall seconds, LUs)`` of one DC solve."""
    factorizations = _FACTORIZATIONS.value()
    start = time.perf_counter()
    equilibrium = solve_equilibrium(structure, geometry,
                                    doping_profile=doping,
                                    reference=reference)
    wall = time.perf_counter() - start
    return (equilibrium, wall,
            int(_FACTORIZATIONS.value() - factorizations))


def _compare(problem, samples) -> dict:
    structure = problem.structure
    reference = problem.solver.dc_reference()
    fallbacks = _CHORD_FALLBACKS.value()
    totals = {"t_newton": 0.0, "t_chord": 0.0, "lu_newton": 0,
              "lu_chord": 0, "gap": 0.0, "steps": 0,
              "fill": reference.fill}
    for geometry, doping in samples:
        # Interleaved, so host-speed drift hits both paths alike.
        newton, t_newton, lu_newton = _timed_solve(
            structure, geometry, doping, None)
        chord, t_chord, lu_chord = _timed_solve(
            structure, geometry, doping, reference)
        totals["t_newton"] += t_newton
        totals["t_chord"] += t_chord
        totals["lu_newton"] += lu_newton
        totals["lu_chord"] += lu_chord
        totals["steps"] += chord.iterations
        totals["gap"] = max(totals["gap"], float(np.abs(
            chord.potential - newton.potential).max()))
    totals["fallbacks"] = int(_CHORD_FALLBACKS.value() - fallbacks)
    return totals


@pytest.mark.benchmark(group="dc-chord")
def test_dc_chord_speedup(benchmark, output_dir):
    holder = {}

    def run():
        problem = table2_spec(max_step_um=2.5, margin_um=2.5,
                              rdf_nodes=8).build_problem()
        samples = _perturbed_samples(problem, SAMPLES, SEED)
        holder.update(_compare(problem, samples))
        return holder

    benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = holder["t_newton"] / holder["t_chord"]
    write_report(output_dir, "dc_chord", "\n".join([
        "DC CHORD: perturbed table2 equilibria, full Newton vs the "
        "nominal-factor chord",
        f"  samples: {SAMPLES} (seed {SEED})",
        f"  nominal DC factor: {holder['fill']} stored entries",
        f"  newton: {holder['lu_newton']} LUs, "
        f"{holder['t_newton']:.2f}s",
        f"  chord:  {holder['lu_chord']} LUs, {holder['steps']} steps, "
        f"{holder['fallbacks']} fallbacks, {holder['t_chord']:.2f}s "
        f"({speedup:.1f}x)",
        f"  max potential gap: {holder['gap']:.2e} V",
    ]))
    write_bench_json(output_dir, "dc_chord", {
        "samples": SAMPLES,
        "reference_fill": holder["fill"],
        "newton_factorizations": holder["lu_newton"],
        "chord_factorizations": holder["lu_chord"],
        "chord_fallbacks": holder["fallbacks"],
        "max_potential_gap_v": holder["gap"],
        "wall_time_newton_s": holder["t_newton"],
        "wall_time_chord_s": holder["t_chord"],
        "dc_speedup": speedup,
    })

    # --- shape assertions -------------------------------------------
    # The chord factorizes nothing per sample and never needed Newton.
    assert holder["lu_chord"] == 0
    assert holder["fallbacks"] == 0
    # Its stop rule (1e-3 of Newton's 1e-10 V) lands on Newton's root.
    assert holder["gap"] < 1e-13
    # ~6x measured on a 2-core host; 2x absorbs shared-runner noise.
    assert speedup > 2.0
