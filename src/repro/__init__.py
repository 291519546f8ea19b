"""repro — variation-aware EM-semiconductor coupled solver for 3D-IC TSVs.

Reproduction of Xu, Yu, Chen, Jiang & Wong, "Efficient Variation-Aware
EM-Semiconductor Coupled Solver for the TSV Structures in 3D IC",
DATE 2012.

Quick tour
----------
>>> from repro import build_metalplug_structure, AVSolver
>>> solver = AVSolver(build_metalplug_structure(), frequency=1e9)
>>> solution = solver.solve({"plug1": 1.0, "plug2": 0.0})

Stochastic pipeline::

    from repro.experiments import table1_problem
    from repro.analysis import run_sscm_analysis, run_mc_analysis

    problem = table1_problem("both")
    sscm = run_sscm_analysis(problem)          # wPFA + sparse grid
    mc = run_mc_analysis(problem, num_runs=2000)

Exports resolve lazily (PEP 562): importing :mod:`repro` costs
nothing, and pure-stdlib subsystems — :mod:`repro.lint` foremost, so
the CI lint job runs ``python -m repro.lint`` without installing
numpy/scipy — never drag the scientific stack in.  ``from repro
import AVSolver`` imports the solver stack on first touch exactly as
the eager form did.
"""

from __future__ import annotations

import importlib

#: Lazy export table: public name -> defining subpackage.  This *is*
#: the package's public surface — ``__all__`` is derived from it, and
#: ``TestPublicApi`` in ``tests/test_docs.py`` checks that every entry
#: resolves to a documented definition.
_EXPORTS = {
    "EPS0": "repro.constants",
    "MU0": "repro.constants",
    "Q": "repro.constants",
    "VT_ROOM": "repro.constants",
    "um": "repro.units",
    "nm": "repro.units",
    "ghz": "repro.units",
    "ReproError": "repro.errors",
    "MeshError": "repro.errors",
    "MeshDestroyedError": "repro.errors",
    "GeometryError": "repro.errors",
    "MaterialError": "repro.errors",
    "ConvergenceError": "repro.errors",
    "SingularSystemError": "repro.errors",
    "StochasticError": "repro.errors",
    "ExtractionError": "repro.errors",
    "CartesianGrid": "repro.mesh",
    "PerturbedGrid": "repro.mesh",
    "compute_geometry": "repro.mesh",
    "Box": "repro.geometry",
    "Structure": "repro.geometry",
    "MetalPlugDesign": "repro.geometry",
    "TsvDesign": "repro.geometry",
    "build_metalplug_structure": "repro.geometry",
    "build_tsv_structure": "repro.geometry",
    "Metal": "repro.materials",
    "Insulator": "repro.materials",
    "Semiconductor": "repro.materials",
    "copper": "repro.materials",
    "tungsten": "repro.materials",
    "silicon_dioxide": "repro.materials",
    "doped_silicon": "repro.materials",
    "UniformDoping": "repro.materials",
    "ContinuousSurfaceModel": "repro.variation",
    "NaiveSurfaceModel": "repro.variation",
    "GaussianRandomField": "repro.variation",
    "AVSolver": "repro.solver",
    "ACSolution": "repro.solver",
    "port_current": "repro.extraction",
    "metal_semiconductor_current": "repro.extraction",
    "capacitance_column": "repro.extraction",
    "run_sscm": "repro.stochastic",
    "run_monte_carlo": "repro.stochastic",
    "smolyak_sparse_grid": "repro.stochastic",
    "pfa_reduce": "repro.stochastic",
    "wpfa_reduce": "repro.stochastic",
    "AdaptiveConfig": "repro.adaptive",
    "run_adaptive_sscm": "repro.adaptive",
    "VariationalProblem": "repro.analysis",
    "run_problem": "repro.analysis",
    "run_sscm_analysis": "repro.analysis",
    "run_mc_analysis": "repro.analysis",
    "ComparisonTable": "repro.analysis",
}

#: Package version (kept importable without touching any subpackage).
__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Resolve a public name through the lazy export table (PEP 562).

    Unknown names fall back to submodule import, so ``import repro;
    repro.serving`` keeps working exactly as it did when the package
    imported eagerly.  Resolved values are cached in the module dict,
    so each export pays the import cost once.
    """
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}"
            ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    """Advertise lazy exports alongside whatever already resolved."""
    return sorted(set(globals()) | set(_EXPORTS))
