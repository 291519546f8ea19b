"""Smolyak sparse grids over Gauss-Hermite rules.

The SSCM of Zhu et al. (paper Section II.B) picks collocation points
with "the sparse grid technique"; for ``d`` reduced variables it quotes
``2 d^2 + 3 d + 1`` points.  The standard level-2 Smolyak construction
implemented here — 1-D rule sizes (1, 3, 5) with the combination
technique — yields ``2 d^2 + 4 d + 1`` distinct points, the same O(d^2)
scaling and polynomial exactness class; :func:`paper_point_count`
reports the quoted formula for comparison (the tests pin both).

Weights come from the Smolyak combination coefficients; for level 2
they integrate all polynomials of total degree <= 5 exactly in the
cross terms needed by a quadratic chaos projection.

Coincident points across combination terms merge *exactly* through the
shared 1-D :class:`~repro.stochastic.gauss_hermite.NodeTable` (node
identity by exact value, point identity by node-id tuple), so nodes at
any level can neither alias nor split — no decimal-rounding key hack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.errors import StochasticError
from repro.stochastic.gauss_hermite import (
    _LEVEL_SIZES,
    NodeTable,
    gauss_hermite_rule,
)


@dataclass
class SparseGrid:
    """Collocation nodes and weights.

    Attributes
    ----------
    points:
        ``(num_points, dim)`` standard-normal-space nodes.
    weights:
        ``(num_points,)`` quadrature weights (sum to 1).
    level:
        Smolyak level the grid was built at.
    """

    points: np.ndarray
    weights: np.ndarray
    level: int

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def paper_point_count(dim: int) -> int:
    """The collocation-point count quoted by the paper: 2 d^2 + 3 d + 1.

    Matches the run counts of Section IV: 1035 for d = 22 and 2415 for
    d = 34.
    """
    if dim < 1:
        raise StochasticError(f"dim must be >= 1, got {dim}")
    return 2 * dim * dim + 3 * dim + 1


def smolyak_point_count(dim: int) -> int:
    """Distinct points of the level-2 (1,3,5) Smolyak grid.

    ``2 d^2 + 4 d + 1`` for ``d >= 2``; for ``d = 1`` the combination
    telescopes to the bare 5-point rule.
    """
    if dim < 1:
        raise StochasticError(f"dim must be >= 1, got {dim}")
    if dim == 1:
        return 5
    return 2 * dim * dim + 4 * dim + 1


def _level_multi_indices(dim: int, level: int):
    """Multi-levels ``l`` with ``|l| <= level`` and per-axis ``l_i`` <=
    level, together with their Smolyak combination coefficients."""
    out = []
    for total in range(max(0, level - dim + 1), level + 1):
        coeff = (-1) ** (level - total) * math.comb(dim - 1, level - total)
        if coeff == 0:
            continue
        for levels in _compositions_bounded(dim, total, level):
            out.append((levels, coeff))
    return out


def _compositions_bounded(dim: int, total: int, bound: int):
    """Multi-levels of exactly ``total`` with entries <= ``bound``.

    Enumerated sparsely: only the nonzero slots are chosen, because for
    level 2 at most two coordinates are nonzero regardless of ``dim``.
    """
    if total == 0:
        yield tuple([0] * dim)
        return
    # Partitions of `total` into at most `total` positive parts <= bound.
    for num_active in range(1, min(dim, total) + 1):
        for parts in _partitions(total, num_active, bound):
            for slots in combinations(range(dim), num_active):
                # Distinct orderings of the parts over the chosen slots.
                for ordering in _unique_permutations(parts):
                    vec = [0] * dim
                    for slot, val in zip(slots, ordering):
                        vec[slot] = val
                    yield tuple(vec)


def _partitions(total: int, parts: int, bound: int):
    """Integer partitions of ``total`` into exactly ``parts`` parts,
    each in ``[1, bound]``, non-increasing."""
    if parts == 1:
        if 1 <= total <= bound:
            yield (total,)
        return
    for head in range(min(total - parts + 1, bound), 0, -1):
        for tail in _partitions(total - head, parts - 1, min(head, bound)):
            yield (head,) + tail


def _unique_permutations(values):
    """Distinct orderings of a small tuple."""
    from itertools import permutations
    return sorted(set(permutations(values)))


def smolyak_sparse_grid(dim: int, level: int = 2) -> SparseGrid:
    """Build the Smolyak sparse grid over Gauss-Hermite rules.

    Parameters
    ----------
    dim:
        Number of independent standard-normal variables ``d``.
    level:
        Smolyak level; 2 (the default) supports the quadratic chaos of
        the paper.
    """
    if dim < 1:
        raise StochasticError(f"dim must be >= 1, got {dim}")
    if level < 0 or level >= len(_LEVEL_SIZES) + 10:
        raise StochasticError(f"unsupported level {level}")
    table = NodeTable()
    accumulator = {}
    for levels, coeff in _level_multi_indices(dim, level):
        keys, weights = table.tensor_rule(levels)
        for key, weight in zip(keys, weights):
            accumulator[key] = accumulator.get(key, 0.0) + coeff * weight

    keys = sorted(accumulator,
                  key=lambda k: tuple(table.value(i) for i in k))
    points = np.array([[table.value(i) for i in key] for key in keys])
    weights = np.array([accumulator[key] for key in keys])
    # Drop points whose combined weight cancelled exactly.
    keep = np.abs(weights) > 1e-14
    return SparseGrid(points=points[keep], weights=weights[keep],
                      level=level)


def tensor_grid(dim: int, points_per_axis: int = 3) -> SparseGrid:
    """Full tensor Gauss-Hermite grid (the ablation baseline).

    ``points_per_axis ** dim`` points — the exponential cost the sparse
    grid avoids; only sensible for small ``dim``.
    """
    if dim < 1:
        raise StochasticError(f"dim must be >= 1, got {dim}")
    if points_per_axis ** dim > 2_000_000:
        raise StochasticError(
            f"tensor grid with {points_per_axis}^{dim} points is "
            f"infeasible; use the sparse grid")
    nodes, weights = gauss_hermite_rule(points_per_axis)
    meshes = np.meshgrid(*([nodes] * dim), indexing="ij")
    wmeshes = np.meshgrid(*([weights] * dim), indexing="ij")
    points = np.stack([m.ravel() for m in meshes], axis=1)
    w = np.ones(points.shape[0])
    for wm in wmeshes:
        w = w * wm.ravel()
    return SparseGrid(points=points, weights=w, level=-1)
