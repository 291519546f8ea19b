"""AC CHORD: perturbed-sample AC solves through the nominal AC factor.

Every collocation sample of a stochastic build solves the coupled A-V
system linearized at its own DC point (the paper's eq. 8).  The RDF
and geometry perturbations move that matrix only slightly, so the
solver refines each perturbed sample's AC solve through the LU of the
*nominal* sample's matrix (a chord, certified to the direct LU's own
row-scaled residual level) instead of factorizing the sample's matrix
(docs/SOLVER.md, "The AC solve: one nominal factor per contact set").

This bench solves the AC systems of the same seeded perturbed samples
of the fast-mesh Table II TSV twice — by a direct LU and by the chord
— on the same equilibria, and reports the factorizations each path
pays, the chord's fallbacks, the largest relative QoI gap between the
two answers and the speedup of the AC solve (factorization or chord,
and back-substitution; the shared assembly is not timed).  Each
sample's direct and chord solves run ``REPEATS`` times, interleaved,
each on a fresh system, and each path keeps its fastest; every system
restricts through the solver's shared sparsity patterns, so neither
timed solve builds one.  Expected shape: no factorization and no
fallback on the chord path, capacitances within ~1e-13 relative, and
a speedup near 2x.

The bench also records the fill of the nominal AC factor every chord
step back-substitutes through (``reference_fill``, SuperLU's stored
entries of L and U), so a change of ordering shows as an exact field.

A third pass solves the same samples ``AC_BATCH`` to a block, their
chords in lockstep (one multi-RHS back-substitution per step for the
whole block, as a build's waves do), and reports the block steps, that
every QoI is bitwise the per-sample chord's, and the speedup over the
per-sample chord.  Expected shape: steps near the sum of each block's
longest chord, bitwise identity, and ~1.5x.
"""

import time

import numpy as np
import pytest

from repro.experiments import table2_spec
from repro.solver.ac import ACSystem, solve_systems
from repro.solver.avsolver import AC_BATCH
from repro.solver.backends import _AC_CHORD_FALLBACKS, _AC_CHORD_STEPS
from repro.solver.linear import _FACTORIZATIONS
from repro.variation.random_field import stable_cholesky

from conftest import write_bench_json, write_report

SAMPLES = 24
SEED = 20120316
#: Interleaved repeats per solve; each path keeps its fastest.
REPEATS = 3


def _perturbed_systems(problem, count: int, seed: int) -> list:
    """Assembled systems of ``count`` full-covariance perturbation
    draws (their equilibria are what both paths linearize at)."""
    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        xi = {group.name: factors[group.name]
              @ rng.standard_normal(group.size)
              for group in problem.groups}
        systems.append(problem.solver.system_for(
            *problem._sample_inputs(xi)))
    return systems


def _system(problem, sample, references):
    """A fresh AC system of ``sample`` (assembled, not yet solved) on
    the solver's shared sparsity patterns."""
    return ACSystem(problem.structure, sample.geometry,
                    sample.equilibrium, problem.frequency,
                    recombination=problem.recombination,
                    references=references,
                    patterns=problem.solver.nominal_state.ac_patterns)


def _timed_solve(problem, sample, references):
    """``(qoi, wall seconds, LUs, chord steps, fallbacks)`` of one AC
    solve.

    The assembly, which both paths share, is not timed: the wall is
    the factorization (or chord) and the back-substitutions.
    """
    system = _system(problem, sample, references)
    before = (_FACTORIZATIONS.value(), _AC_CHORD_STEPS.value(),
              _AC_CHORD_FALLBACKS.value())
    start = time.perf_counter()
    solution = system.solve(problem.excitations)
    wall = time.perf_counter() - start
    counts = (_FACTORIZATIONS.value(), _AC_CHORD_STEPS.value(),
              _AC_CHORD_FALLBACKS.value())
    return (np.asarray(problem.qoi(solution)), wall,
            *(int(after - was) for after, was in zip(counts, before)))


def _timed_block(problem, block, references):
    """``(qoi rows, wall seconds, chord steps)`` of one lockstep block
    solve, timed like :func:`_timed_solve`."""
    systems = [_system(problem, sample, references) for sample in block]
    steps = _AC_CHORD_STEPS.value()
    start = time.perf_counter()
    solutions = solve_systems(systems, excitations=problem.excitations)
    wall = time.perf_counter() - start
    return ([np.asarray(problem.qoi(solution)) for solution in solutions],
            wall, int(_AC_CHORD_STEPS.value() - steps))


def _compare(problem, samples) -> dict:
    solver = problem.solver
    references = {frozenset(problem.excitations):
                  solver.ac_reference(problem.excitations)}
    totals = {"t_direct": 0.0, "t_chord": 0.0, "lu_direct": 0,
              "lu_chord": 0, "gap": 0.0, "fallbacks": 0, "steps": 0}
    for sample in samples:
        # Interleaved run by run, so host-speed drift hits both paths
        # alike; each keeps its fastest run.
        t_direct = t_chord = np.inf
        for repeat in range(REPEATS):
            direct, wall, lu_direct, _, _ = _timed_solve(
                problem, sample, None)
            t_direct = min(t_direct, wall)
            chord, wall, lu_chord, steps, fallbacks = _timed_solve(
                problem, sample, references)
            t_chord = min(t_chord, wall)
            if repeat == 0:
                totals["lu_direct"] += lu_direct
                totals["lu_chord"] += lu_chord
                totals["steps"] += steps
                totals["fallbacks"] += fallbacks
                totals["gap"] = max(totals["gap"], float(np.max(
                    np.abs(chord - direct) / np.abs(direct))))
        totals["t_direct"] += t_direct
        totals["t_chord"] += t_chord
    return totals


def _compare_batched(problem, samples) -> dict:
    """The per-sample chord against lockstep blocks of ``AC_BATCH``,
    interleaved block by block, each path keeping its fastest of
    ``REPEATS`` runs."""
    references = {frozenset(problem.excitations):
                  problem.solver.ac_reference(problem.excitations)}
    totals = {"t_single": 0.0, "t_batched": 0.0, "batched_steps": 0,
              "bitwise": True}
    for start in range(0, len(samples), AC_BATCH):
        block = samples[start:start + AC_BATCH]
        t_single = t_batched = np.inf
        for repeat in range(REPEATS):
            singles = [_timed_solve(problem, sample, references)
                       for sample in block]
            t_single = min(t_single, sum(run[1] for run in singles))
            batched, wall, steps = _timed_block(problem, block,
                                                references)
            t_batched = min(t_batched, wall)
            if repeat == 0:
                totals["batched_steps"] += steps
                totals["bitwise"] &= all(
                    np.array_equal(row, single[0])
                    for row, single in zip(batched, singles))
        totals["t_single"] += t_single
        totals["t_batched"] += t_batched
    return totals


@pytest.mark.benchmark(group="ac-chord")
def test_ac_chord_speedup(benchmark, output_dir):
    holder = {}

    def run():
        problem = table2_spec(max_step_um=2.5, margin_um=2.5,
                              rdf_nodes=8).build_problem()
        samples = _perturbed_systems(problem, SAMPLES, SEED)
        holder["fill"] = problem.solver.ac_reference(
            problem.excitations).fill
        holder.update(_compare(problem, samples))
        holder.update(_compare_batched(problem, samples))
        return holder

    benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = holder["t_direct"] / holder["t_chord"]
    batched_speedup = holder["t_single"] / holder["t_batched"]
    write_report(output_dir, "ac_chord", "\n".join([
        "AC CHORD: perturbed table2 AC solves, direct LU vs the "
        "nominal-factor chord",
        f"  samples: {SAMPLES} (seed {SEED})",
        f"  nominal AC factor: {holder['fill']} stored entries",
        f"  direct: {holder['lu_direct']} LUs, "
        f"{holder['t_direct']:.2f}s",
        f"  chord:  {holder['lu_chord']} LUs, {holder['steps']} steps, "
        f"{holder['fallbacks']} fallbacks, {holder['t_chord']:.2f}s "
        f"({speedup:.1f}x)",
        f"  max QoI rel gap: {holder['gap']:.2e}",
        f"  batched ({AC_BATCH} samples to a block): "
        f"{holder['batched_steps']} steps, {holder['t_batched']:.2f}s "
        f"({batched_speedup:.1f}x over the per-sample chord), "
        f"bitwise identical: {holder['bitwise']}",
    ]))
    write_bench_json(output_dir, "ac_chord", {
        "reference_fill": holder["fill"],
        "direct_factorizations": holder["lu_direct"],
        "chord_factorizations": holder["lu_chord"],
        "chord_fallbacks": holder["fallbacks"],
        "max_qoi_rel_gap": holder["gap"],
        "wall_time_direct_s": holder["t_direct"],
        "wall_time_chord_s": holder["t_chord"],
        "ac_speedup": speedup,
        "batched_chord_steps": holder["batched_steps"],
        "batched_bitwise_identical": holder["bitwise"],
        "wall_time_batched_s": holder["t_batched"],
        "batched_speedup": batched_speedup,
    })

    # --- shape assertions -------------------------------------------
    # The chord factorizes nothing per sample and never fell back.
    assert holder["lu_chord"] == 0
    assert holder["fallbacks"] == 0
    # Certified at the direct LU's own residual level.
    assert holder["gap"] < 1e-12
    assert speedup > 1.5
    # A block pays one back-substitution per step for all its samples,
    # and changes no sample's answer by a bit.
    assert holder["bitwise"] is True
    assert holder["batched_steps"] < holder["steps"]
    assert batched_speedup > 1.3
