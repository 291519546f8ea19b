"""Variance decomposition (Sobol indices) from the quadratic chaos.

A fitted Hermite PCE makes global sensitivity analysis free: the
variance contribution of each input (or group of inputs) is the sum of
the squared coefficients of the basis terms involving it.  This
extends the paper's statistical model to answer *which* variation
source drives the spread — e.g. how much of Table I's std comes from
the roughness groups versus the RDF group.

For a quadratic chaos the classic identities hold:

* main-effect index of variable i: terms involving *only* i;
* total-effect index of variable i: all terms involving i;
* group indices: the same with "i" replaced by "any member of the set".
"""

from __future__ import annotations

import numpy as np

from repro.errors import StochasticError
from repro.stochastic.pce import PolynomialChaos


def _term_variances(pce: PolynomialChaos) -> np.ndarray:
    """Variance contribution of every basis term, ``(terms, outputs)``."""
    coef = pce.coefficients
    norms = pce.basis.norms_squared[:, None]
    contrib = coef * coef * norms
    contrib[0] = 0.0  # the mean term carries no variance
    return contrib


def main_effect_indices(pce: PolynomialChaos) -> np.ndarray:
    """First-order (main effect) Sobol indices, ``(dim, outputs)``.

    Entry ``[i, k]`` is the fraction of output ``k``'s variance
    explained by terms involving only variable ``i``.
    """
    contrib = _term_variances(pce)
    variance = contrib.sum(axis=0)
    variance = np.where(variance > 0.0, variance, 1.0)
    out = np.zeros((pce.basis.dim, pce.output_dim))
    for t, index in enumerate(pce.basis.indices):
        active = [i for i, order in enumerate(index) if order > 0]
        if len(active) == 1:
            out[active[0]] += contrib[t]
    return out / variance


def total_effect_indices(pce: PolynomialChaos) -> np.ndarray:
    """Total-effect Sobol indices, ``(dim, outputs)``.

    Entry ``[i, k]`` counts every variance term in which variable ``i``
    participates (so columns may sum to more than 1 in the presence of
    interactions).
    """
    contrib = _term_variances(pce)
    variance = contrib.sum(axis=0)
    variance = np.where(variance > 0.0, variance, 1.0)
    out = np.zeros((pce.basis.dim, pce.output_dim))
    for t, index in enumerate(pce.basis.indices):
        for i, order in enumerate(index):
            if order > 0:
                out[i] += contrib[t]
    return out / variance


def group_indices(pce: PolynomialChaos, groups: dict) -> dict:
    """Closed (group) Sobol indices for disjoint variable sets.

    Parameters
    ----------
    pce:
        The fitted chaos.
    groups:
        ``{name: iterable of variable indices}``; sets must be disjoint
        but need not cover every variable.

    Returns
    -------
    dict
        ``{name: (outputs,) fraction of variance from terms whose
        active variables all belong to the named set}`` plus the key
        ``"__interaction__"`` collecting cross-group terms.
    """
    sets = {}
    seen = set()
    for name, ids in groups.items():
        ids = frozenset(int(i) for i in ids)
        if not ids:
            raise StochasticError(f"group {name!r} is empty")
        if ids & seen:
            raise StochasticError("groups must be disjoint")
        if max(ids) >= pce.basis.dim or min(ids) < 0:
            raise StochasticError(
                f"group {name!r} has out-of-range variable indices")
        seen |= ids
        sets[name] = ids

    contrib = _term_variances(pce)
    variance = contrib.sum(axis=0)
    variance = np.where(variance > 0.0, variance, 1.0)
    out = {name: np.zeros(pce.output_dim) for name in sets}
    out["__interaction__"] = np.zeros(pce.output_dim)
    for t, index in enumerate(pce.basis.indices):
        active = frozenset(i for i, order in enumerate(index)
                           if order > 0)
        if not active:
            continue
        owner = None
        for name, ids in sets.items():
            if active <= ids:
                owner = name
                break
        if owner is None:
            out["__interaction__"] += contrib[t]
        else:
            out[owner] += contrib[t]
    return {name: vals / variance for name, vals in out.items()}


def group_indices_from_reduced_space(pce: PolynomialChaos,
                                      reduced_space) -> dict:
    """Group Sobol indices keyed by perturbation-group name.

    Convenience wrapper mapping the slices of a
    :class:`~repro.stochastic.reduction.ReducedSpace` onto
    :func:`group_indices` — the per-source variance budget of a
    Table I / Table II run.
    """
    groups = {rg.group.name: range(rg.slice.start, rg.slice.stop)
              for rg in reduced_space.groups}
    return group_indices(pce, groups)
