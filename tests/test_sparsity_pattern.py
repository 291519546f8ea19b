"""Shared sparsity patterns: the symbolic assembly every sample reuses.

* :class:`~repro.solver.linear.SparsityPattern` reproduces scipy's
  COO→CSR conversion and fancy-index restriction bit for bit, on any
  COO structure (property tests);
* an :class:`~repro.solver.avsolver.AVSolver` builds one AC and one DC
  pattern from its nominal sample, and its perturbed samples scatter
  into them: their restricted matrices share the pattern's index
  arrays;
* the guard: a shared entry whose COO structure differs from a
  system's is never used, and stays in the map;
* a frequency sweep builds one AC pattern for all its frequencies.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import table2_spec
from repro.solver import AVSolver
from repro.solver.ac import ACSystem
from repro.solver.dc import _DC_KEY, solve_equilibrium
from repro.solver.linear import _PATTERNS, SparsityPattern
from repro.solver.sweep import frequency_sweep
from repro.variation.random_field import stable_cholesky

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _coo(seed, n_rows, n_cols, nnz, width, zeros, complex_):
    """A random COO triple; ``width`` bounds each row's column range
    from its own random start, so small widths give long duplicate
    runs, and rows are drawn from a subset so some stay empty."""
    rng = np.random.default_rng(seed)
    used = rng.choice(n_rows, size=max(1, n_rows // 2), replace=False)
    rows = rng.choice(used, size=nnz)
    start = rng.integers(0, n_cols, size=n_rows)[rows]
    cols = (start + rng.integers(0, width, size=nnz)) % n_cols
    vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-20, 20, nnz)
    if complex_:
        vals = vals + 1j * (rng.standard_normal(nnz)
                            * 10.0 ** rng.integers(-20, 20, nnz))
    vals[rng.random(nnz) < zeros] = 0.0
    return rows, cols, vals


def _subset(seed, size):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(size, size=int(rng.integers(1, size + 1)),
                              replace=False))


def _same_csr(matrix, reference):
    return (matrix.shape == reference.shape
            and matrix.data.dtype == reference.data.dtype
            and np.array_equal(matrix.data, reference.data)
            and np.array_equal(matrix.indices, reference.indices)
            and np.array_equal(matrix.indptr, reference.indptr))


class TestSparsityPattern:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, n_rows=st.integers(1, 25),
           n_cols=st.integers(1, 25), nnz=st.integers(0, 400),
           width=st.integers(1, 25), zeros=st.sampled_from([0.0, 0.3]),
           complex_=st.booleans())
    def test_bitwise_scipy(self, seed, n_rows, n_cols, nnz, width, zeros,
                           complex_):
        rows, cols, vals = _coo(seed, n_rows, n_cols, nnz, width, zeros,
                                complex_)
        shape = (n_rows, n_cols)
        reference = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        pattern = SparsityPattern(rows, cols, shape)
        data = pattern.data(vals)
        assert data.dtype == reference.data.dtype
        assert np.array_equal(data, reference.data)
        assert pattern.nnz == reference.nnz
        row_ids = _subset(seed + 1, n_rows)
        col_ids = _subset(seed + 2, n_cols)
        for cols_kept in (col_ids, row_ids[row_ids < n_cols]):
            block = pattern.block(row_ids, cols_kept)
            assert _same_csr(block.matrix(data),
                             reference[row_ids][:, cols_kept])

    def test_long_duplicate_runs_sum_in_scipys_order(self):
        # Rows of more than 16 entries take the unstable introsort of
        # csr_sort_indices, so duplicates are not summed in COO order.
        rng = np.random.default_rng(7)
        rows = np.repeat(np.arange(40), 60)
        cols = rng.integers(0, 12, size=rows.size)
        vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(
            -16, 16, rows.size)
        reference = sp.csr_matrix((vals, (rows, cols)), shape=(40, 12))
        pattern = SparsityPattern(rows, cols, (40, 12))
        assert np.array_equal(pattern.data(vals), reference.data)

    def test_matches_only_its_own_structure(self):
        rows, cols = np.array([0, 1, 1]), np.array([1, 0, 0])
        pattern = SparsityPattern(rows, cols, (2, 2))
        assert pattern.matches(rows.copy(), cols.copy())
        assert not pattern.matches(rows, cols[::-1])
        assert not pattern.matches(rows[:2], cols[:2])


def _draws(problem, count, seed=0):
    factors = {group.name: stable_cholesky(group.covariance)
               for group in problem.groups}
    rng = np.random.default_rng(seed)
    return [{group.name: factors[group.name]
             @ rng.standard_normal(group.size)
             for group in problem.groups} for _ in range(count)]


def _patterns_built():
    return np.array([_PATTERNS.value(system="ac"),
                     _PATTERNS.value(system="dc")])


def _table2():
    return table2_spec(max_step_um=2.5, margin_um=2.5,
                       rdf_nodes=8).build_problem()


class TestSharedPatterns:
    def test_a_wave_builds_one_ac_and_one_dc_pattern(self):
        problem = _table2()
        before = _patterns_built()
        problem.evaluate_samples(_draws(problem, 5))
        assert np.array_equal(_patterns_built() - before, [1, 1])

    def test_samples_share_the_patterns_index_arrays(self):
        problem = _table2()
        solver = problem.solver
        key = frozenset(problem.excitations)
        solver.ac_reference(key)
        before = _patterns_built()
        system = solver.system_for(
            *problem._sample_inputs(_draws(problem, 1)[0]))
        system.solve(problem.excitations)
        assert np.array_equal(_patterns_built(), before)
        _, block, coupling = solver.nominal_state.ac_patterns[key]
        restricted = system._factor_cache[key]
        assert np.shares_memory(restricted.factor._matrix.indices,
                                block.indices)
        assert np.shares_memory(restricted.coupling.indices,
                                coupling.indices)

    def test_scatter_equals_scipys_restriction(self):
        problem = _table2()
        solver = problem.solver
        key = frozenset(problem.excitations)
        solver.ac_reference(key)
        system = solver.system_for(
            *problem._sample_inputs(_draws(problem, 1)[0]))
        rows, cols, vals = system._assemble()
        size = 3 * system.num_nodes
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
        restricted = system._restricted_system(problem.excitations)
        unknown = restricted.unknown
        assert _same_csr(restricted.factor._matrix,
                         matrix[unknown][:, unknown])
        assert _same_csr(restricted.coupling,
                         matrix[unknown][:, restricted.dirichlet_ids])


def _mismatched(patterns, key, unknown, pinned):
    """Replace ``patterns[key]`` by the entry of another COO structure
    (the first entry dropped) over the same restriction."""
    pattern = patterns[key][0]
    wrong = SparsityPattern(pattern._rows[1:], pattern._cols[1:],
                            pattern.shape)
    patterns[key] = (wrong, wrong.block(unknown, unknown),
                     wrong.block(unknown, pinned))
    return patterns[key]


class TestGuard:
    def test_ac_mismatch_is_never_used_and_stays(self,
                                                 coarse_plug_structure):
        excitations = {"plug1": 1.0, "plug2": 0.0}
        key = frozenset(excitations)
        solver = AVSolver(coarse_plug_structure, frequency=1e9)
        nominal = solver.system_for()
        nominal.solve(excitations)  # enters its pattern under key
        restricted = nominal._factor_cache[key]
        patterns = dict(solver.nominal_state.ac_patterns)
        wrong = _mismatched(patterns, key, restricted.unknown,
                            restricted.dirichlet_ids)
        fresh = ACSystem(coarse_plug_structure, nominal.geometry,
                         nominal.equilibrium, 1e9).solve(excitations)
        before = _patterns_built()
        guarded = ACSystem(coarse_plug_structure, nominal.geometry,
                           nominal.equilibrium, 1e9,
                           patterns=patterns).solve(excitations)
        assert patterns[key] is wrong
        assert np.array_equal(_patterns_built() - before, [1, 0])
        assert np.array_equal(guarded.potential, fresh.potential)
        assert np.array_equal(guarded.n, fresh.n)
        assert np.array_equal(guarded.p, fresh.p)

    def test_dc_mismatch_is_never_used_and_stays(self,
                                                 coarse_plug_structure):
        geometry = AVSolver(coarse_plug_structure,
                            frequency=1e9).nominal_geometry
        patterns = {}
        fresh = solve_equilibrium(coarse_plug_structure, geometry,
                                  patterns=patterns)
        metal = coarse_plug_structure.node_kinds().metal
        wrong = _mismatched(patterns, _DC_KEY, np.flatnonzero(~metal),
                            np.flatnonzero(metal))
        before = _patterns_built()
        guarded = solve_equilibrium(coarse_plug_structure, geometry,
                                    patterns=patterns)
        assert patterns[_DC_KEY] is wrong
        assert np.array_equal(_patterns_built() - before, [0, 1])
        assert np.array_equal(guarded.potential, fresh.potential)


class TestSweep:
    def test_one_pattern_for_every_frequency(self, coarse_plug_structure):
        before = _patterns_built()
        frequency_sweep(coarse_plug_structure, [1e8, 1e9, 1e10],
                        ports=["plug1", "plug2"])
        assert np.array_equal(_patterns_built() - before, [1, 1])
