"""wPFA weights from the nominal solution (paper eq. 9).

For the coupled-current problem the influence of a doping node is
proportional to the nominal current it carries:
``w_i = J0_i * nodeV_i``.  For geometric (surface) perturbations the
natural analogue — and the original wPFA construction of the BEM
capacitance work — is the panel charge, i.e. the local dielectric flux.

On the FVM mesh both are realized per node as the mean |flux| over the
node's incident links scaled by the dual volume: the link current for
doping groups, the Gauss (D-field) flux for geometry groups.  Only the
*relative* weights within a group matter, so the overall scale is
irrelevant (wpfa_reduce normalizes internally).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StochasticError
from repro.solver.ac import ACSolution


def _node_mean_link_magnitude(solution: ACSolution, node_ids: np.ndarray,
                              link_values: np.ndarray) -> np.ndarray:
    """Mean |link value| over the links incident to each node."""
    links = solution.geometry.links
    n = solution.structure.grid.num_nodes
    totals = np.zeros(n)
    counts = np.zeros(n)
    mags = np.abs(link_values)
    np.add.at(totals, links.node_a, mags)
    np.add.at(totals, links.node_b, mags)
    np.add.at(counts, links.node_a, 1.0)
    np.add.at(counts, links.node_b, 1.0)
    counts[counts == 0.0] = 1.0
    return (totals / counts)[node_ids]


def nominal_weights(problem) -> dict:
    """wPFA weight vectors for every group of ``problem``.

    Parameters
    ----------
    problem:
        A :class:`~repro.analysis.problem.VariationalProblem` (its
        nominal solve is the one extra wPFA solve).

    Returns
    -------
    dict
        ``{group name: (n,) weights}``.
    """
    solution = problem.nominal_solution()
    node_volumes = solution.geometry.node_volumes
    current = solution.link_total_current()
    flux = solution.link_dielectric_flux()

    weights = {}
    for group in problem.groups:
        if group.kind == "doping":
            local = _node_mean_link_magnitude(solution, group.node_ids,
                                              current)
        elif group.kind == "geometry":
            local = _node_mean_link_magnitude(solution, group.node_ids,
                                              flux)
        else:
            raise StochasticError(f"unknown group kind {group.kind!r}")
        weights[group.name] = local * node_volumes[group.node_ids]
    return weights
