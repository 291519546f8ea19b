"""Shared fixtures: small structures that solve fast."""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads it.  Pool
# workers are forked from this process and inherit its BLAS: with one
# thread per core each, a 2-worker pool on a 2-core host runs four
# spin-waiting BLAS threads, and a pool build ran 2-26x slower than
# with one.  Pinning only the workers would break the bitwise
# serial/pool tests: results agree only at equal thread counts.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.geometry import (  # noqa: E402
    MetalPlugDesign,
    TsvDesign,
    build_metalplug_structure,
    build_tsv_structure,
)
from repro.mesh import CartesianGrid, LinkSet, compute_geometry  # noqa: E402
from repro.solver.avsolver import NOMINAL_SLOT  # noqa: E402
from repro.units import um  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_nominal_slot():
    """Start every test with no shared nominal state.

    Problems of one structure share the nominal the process solved
    last (``NOMINAL_SLOT``).  A test that counts one solver's
    factorizations, Newton steps or sparsity patterns, or patches a
    solver, would otherwise depend on which tests ran before it.
    """
    NOMINAL_SLOT.clear()


@pytest.fixture(scope="session")
def small_grid():
    """A tiny non-uniform grid for mesh/topology tests."""
    return CartesianGrid(
        xs=np.array([0.0, 1.0, 2.5, 4.0]) * 1e-6,
        ys=np.array([0.0, 0.5, 1.5]) * 1e-6,
        zs=np.array([0.0, 1.0, 2.0, 3.5, 5.0]) * 1e-6,
    )


@pytest.fixture(scope="session")
def small_links(small_grid):
    return LinkSet(small_grid)


@pytest.fixture(scope="session")
def small_geometry(small_grid, small_links):
    return compute_geometry(small_grid, links=small_links)


@pytest.fixture(scope="session")
def coarse_plug_design():
    """Coarse metal-plug design: fast deterministic solves in tests."""
    return MetalPlugDesign(max_step=um(2.0))


@pytest.fixture(scope="session")
def coarse_plug_structure(coarse_plug_design):
    return build_metalplug_structure(coarse_plug_design)


@pytest.fixture(scope="session")
def coarse_tsv_design():
    """Coarse TSV design: fast deterministic solves in tests."""
    return TsvDesign(max_step=um(2.5), margin=um(2.5))


@pytest.fixture(scope="session")
def coarse_tsv_structure(coarse_tsv_design):
    return build_tsv_structure(coarse_tsv_design)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
