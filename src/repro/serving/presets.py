"""Presets: named, parameterized surrogate families.

A preset binds a spec's name to a builder that turns resolved JSON
parameters into a live :class:`~repro.analysis.problem.VariationalProblem`.
The preset set is the fixed table :data:`_PRESETS` of the paper's two
Section IV experiments, so
``{"preset": "table1", "params": {"variant": "geometry"}}`` is a
complete, buildable, cacheable surrogate identity.  A new structure is
one more table entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServingError
from repro.units import um


@dataclass(frozen=True)
class Preset:
    """One surrogate family.

    Attributes
    ----------
    name:
        Table key, referenced by ``ProblemSpec.preset``.
    description:
        One-line human summary (shown by ``repro structures``).
    defaults:
        Complete parameter set with default values (JSON scalars);
        spec params must be a subset of these names.
    build:
        Callable ``resolved params -> VariationalProblem``.
    """

    name: str
    description: str
    defaults: dict
    build: callable


# ----------------------------------------------------------------------
# The paper's experiments.  Lengths are JSON-unfriendly in metres, so
# the wire format uses microns (the paper's unit throughout).
# ----------------------------------------------------------------------
def _build_table1(params: dict):
    from repro.experiments.table1 import Table1Config, table1_problem
    from repro.geometry.builders import MetalPlugDesign
    config = Table1Config(
        sigma_g=um(params["sigma_g_um"]),
        eta_g=um(params["eta_g_um"]),
        sigma_m=params["sigma_m"],
        eta_m=um(params["eta_m_um"]),
        rdf_nodes=int(params["rdf_nodes"]),
        frequency=float(params["frequency"]),
        design=MetalPlugDesign(max_step=um(params["max_step_um"])),
        surface_model=params["surface_model"],
    )
    return table1_problem(params["variant"], config,
                          multi_port=bool(params["multi_port"]))


def _build_table2(params: dict):
    from repro.experiments.table2 import Table2Config, table2_problem
    from repro.geometry.builders import TsvDesign
    config = Table2Config(
        sigma_g=um(params["sigma_g_um"]),
        eta_g=um(params["eta_g_um"]),
        sigma_m=params["sigma_m"],
        eta_m=um(params["eta_m_um"]),
        rdf_nodes=int(params["rdf_nodes"]),
        frequency=float(params["frequency"]),
        design=TsvDesign(max_step=um(params["max_step_um"]),
                         margin=um(params["margin_um"])),
        surface_model=params["surface_model"],
        merge_coplanar=bool(params["merge_coplanar"]),
    )
    return table2_problem(config, multi_port=bool(params["multi_port"]))


_TABLE1 = Preset(
    name="table1",
    description="metal plugs on doped Si, |J| through the plug-1 "
                "interface (Table I)",
    defaults={
        "variant": "both",
        "sigma_g_um": 0.5,
        "eta_g_um": 0.7,
        "sigma_m": 0.1,
        "eta_m_um": 0.5,
        "rdf_nodes": 72,
        "frequency": 1.0e9,
        "max_step_um": 1.0,
        "surface_model": "csv",
        "multi_port": False,
    },
    build=_build_table1,
)

_TABLE2 = Preset(
    name="table2",
    description="two TSVs with traces, TSV1 capacitance column "
                "(Table II)",
    defaults={
        "sigma_g_um": 0.15,
        "eta_g_um": 0.7,
        "sigma_m": 0.1,
        "eta_m_um": 0.5,
        "rdf_nodes": 128,
        "frequency": 1.0e9,
        "max_step_um": 1.0,
        "margin_um": 3.0,
        "surface_model": "csv",
        "merge_coplanar": True,
        "multi_port": False,
    },
    build=_build_table2,
)

#: Every preset, by name.
_PRESETS = {preset.name: preset for preset in (_TABLE1, _TABLE2)}


def get_preset(name: str) -> Preset:
    """Look a preset up by name (unknown names are a ServingError)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ServingError(
            f"unknown preset {name!r}; registered: "
            f"{sorted(_PRESETS)}") from None


def list_presets() -> list:
    """Every preset, sorted by name."""
    return [_PRESETS[name] for name in sorted(_PRESETS)]
