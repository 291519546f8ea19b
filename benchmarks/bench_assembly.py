"""ASSEMBLY: perturbed samples scatter into the nominal's sparsity pattern.

Every collocation sample of a stochastic build assembles two sparse
matrices on a perturbed grid of one fixed topology: the coupled A-V
matrix of its AC solve (the paper's eq. 8) and the permittivity
Laplacian of its DC equilibrium.  Both are built from COO entries and
restricted to the unknowns.  An ``AVSolver`` builds one symbolic
sparsity pattern per system from its nominal sample, and each
perturbed sample only scatters its values into the shared restricted
blocks (docs/SOLVER.md, "Shared sparsity pattern").

This bench takes 24 seeded perturbed samples of the fast-mesh Table II
TSV and reports the patterns the solver built (one AC, one DC), that
every sample's restricted AC matrix and coupling block, DC ``lap_ff``
and Dirichlet right-hand side equal scipy's COO→CSR conversion plus
fancy-index restriction in ``data``, ``indices`` and ``indptr``, and
the speedup of the scatter over that scipy path.  Both paths start
from the same COO entries, so computing the values is not timed; each
sample's time is the minimum of interleaved repeats.  Expected shape:
1 and 1 patterns, bitwise identity, and a speedup near 5x.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.experiments import table2_spec
from repro.solver.dc import (
    _DC_KEY,
    permittivity_laplacian,
    restricted_laplacian,
)
from repro.solver.linear import _PATTERNS, pattern_blocks
from repro.variation.random_field import stable_cholesky

from conftest import write_bench_json, write_report

SAMPLES = 24
SEED = 20120316
#: Interleaved repeats per sample; each path keeps its fastest.
REPEATS = 5


def _samples(problem, count: int, seed: int):
    """Unsolved AC systems of ``count`` full-covariance perturbation
    draws, each on its own equilibrium, built one at a time as a build
    builds them."""
    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    rng = np.random.default_rng(seed)
    for _ in range(count):
        xi = {group.name: factors[group.name]
              @ rng.standard_normal(group.size)
              for group in problem.groups}
        yield problem.solver._new_system(*problem._sample_inputs(xi))


def _same_csr(matrix, reference) -> bool:
    return (matrix.shape == reference.shape
            and np.array_equal(matrix.data, reference.data)
            and np.array_equal(matrix.indices, reference.indices)
            and np.array_equal(matrix.indptr, reference.indptr))


def _scipy_path(rows, cols, vals, size, unknown, pinned):
    """scipy's COO→CSR conversion and the two fancy restrictions."""
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    return matrix[unknown][:, unknown], matrix[unknown][:, pinned]


def _scatter_path(patterns, key, rows, cols, vals, size, unknown, pinned,
                  system):
    """The shared pattern's guard, sum and restricted blocks."""
    pattern, block, coupling = pattern_blocks(
        patterns, key, rows, cols, (size, size), unknown, pinned, system)
    data = pattern.data(vals)
    return block.matrix(data), coupling.matrix(data)


def _timed(run, *args) -> tuple:
    """``(result, seconds)``: ``run(*args)``'s result and its wall."""
    start = time.perf_counter()
    result = run(*args)
    return result, time.perf_counter() - start


def _compare(problem, systems) -> dict:
    solver = problem.solver
    structure = problem.structure
    key = frozenset(problem.excitations)
    metal = structure.node_kinds().metal
    free, pinned = np.nonzero(~metal)[0], np.nonzero(metal)[0]
    num_nodes = structure.grid.num_nodes
    totals = {"t_scipy": 0.0, "t_scatter": 0.0, "bitwise": True}
    for system in systems:
        restricted = system._restricted_system(problem.excitations)
        unknown, dirichlet = restricted.unknown, restricted.dirichlet_ids
        ac = system._assemble()
        dc = permittivity_laplacian(structure, system.geometry)
        paths = {
            "scipy": (_scipy_path, ac + (3 * num_nodes, unknown, dirichlet),
                      dc + (num_nodes, free, pinned)),
            "scatter": (_scatter_path,
                        (solver.nominal_state.ac_patterns, key) + ac
                        + (3 * num_nodes, unknown, dirichlet, "ac"),
                        (solver.nominal_state.dc_patterns, _DC_KEY) + dc
                        + (num_nodes, free, pinned, "dc")),
        }
        walls = {name: np.inf for name in paths}
        results = {}
        for _ in range(REPEATS):
            for name, (path, ac_args, dc_args) in paths.items():
                (ac_result, ac_wall), (dc_result, dc_wall) = (
                    _timed(path, *ac_args), _timed(path, *dc_args))
                walls[name] = min(walls[name], ac_wall + dc_wall)
                results[name] = (ac_result, dc_result)
        totals["t_scipy"] += walls["scipy"]
        totals["t_scatter"] += walls["scatter"]

        (ac_block, ac_coupling), (lap_ff, lap_fd) = results["scipy"]
        lap_ff_eq, lap_fd_eq = restricted_laplacian(
            structure, system.geometry, solver.nominal_state.dc_patterns)
        dirichlet_values = np.linspace(-0.5, 0.5, pinned.size)
        totals["bitwise"] &= bool(
            _same_csr(restricted.factor._matrix, ac_block)
            and _same_csr(restricted.coupling, ac_coupling)
            and _same_csr(results["scatter"][1][0], lap_ff)
            and _same_csr(lap_ff_eq, lap_ff)
            and _same_csr(lap_fd_eq, lap_fd)
            and np.array_equal(lap_fd_eq @ dirichlet_values,
                               lap_fd @ dirichlet_values))
    return totals


@pytest.mark.benchmark(group="assembly")
def test_assembly_scatter(benchmark, output_dir):
    holder = {}

    def run():
        problem = table2_spec(max_step_um=2.5, margin_um=2.5,
                              rdf_nodes=8).build_problem()
        ac_before = _PATTERNS.value(system="ac")
        dc_before = _PATTERNS.value(system="dc")
        problem.solver.ac_reference(problem.excitations)
        systems = _samples(problem, SAMPLES, SEED)
        holder.update(_compare(problem, systems))
        holder["ac_patterns"] = int(_PATTERNS.value(system="ac")
                                    - ac_before)
        holder["dc_patterns"] = int(_PATTERNS.value(system="dc")
                                    - dc_before)
        return holder

    benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = holder["t_scipy"] / holder["t_scatter"]
    write_report(output_dir, "assembly", "\n".join([
        "ASSEMBLY: perturbed table2 AC and DC matrices, scipy COO->CSR "
        "plus restriction vs the shared pattern's scatter",
        f"  samples: {SAMPLES} (seed {SEED}), min of {REPEATS} "
        f"interleaved repeats each",
        f"  patterns built: {holder['ac_patterns']} AC, "
        f"{holder['dc_patterns']} DC",
        f"  scipy path:   {holder['t_scipy'] * 1e3:.1f} ms",
        f"  scatter path: {holder['t_scatter'] * 1e3:.1f} ms "
        f"({speedup:.1f}x)",
        f"  bitwise identical: {holder['bitwise']}",
    ]))
    write_bench_json(output_dir, "assembly", {
        "ac_pattern_builds": holder["ac_patterns"],
        "dc_pattern_builds": holder["dc_patterns"],
        "scatter_bitwise_identical": holder["bitwise"],
        "wall_time_scipy_s": holder["t_scipy"],
        "wall_time_scatter_s": holder["t_scatter"],
        "assembly_speedup": speedup,
    })

    # --- shape assertions -------------------------------------------
    # The nominal builds one pattern per system; no sample builds one.
    assert holder["ac_patterns"] == 1
    assert holder["dc_patterns"] == 1
    # The scatter is scipy's conversion and restriction, bit for bit.
    assert holder["bitwise"] is True
    assert speedup > 2.0
