"""Probabilists' Hermite polynomials and multivariate chaos bases.

The paper expands the unknown vector in D-dimensional Hermite
polynomials up to second order (eq. 4) and recovers mean/variance from
the coefficients (eq. 5).  The probabilists' normalization is used:
``He_0 = 1``, ``He_1 = x``, ``He_2 = x^2 - 1`` with
``<He_k^2> = k!`` under the standard Gaussian weight.

Beyond the paper's quadratic basis, :class:`HermiteBasis` also accepts
an *explicit* multi-index set — the order-adaptive truncations the
dimension-adaptive engine derives from its accepted level indices
(``repro.adaptive``) — and the 1-D helpers
(:func:`hermite_values_upto`, :func:`hermite_triple_product`) cover
the higher orders those bases need.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StochasticError

#: Points per block of :meth:`HermiteBasis.evaluate`.  A block's 1-D
#: table and transposed design stay ~1 MB at d=7, order 2, so a
#: 16384-row sampling chunk allocates its design and little else.
EVALUATE_BLOCK = 4096


def hermite_values_upto(order: int, x) -> np.ndarray:
    """All ``He_0 .. He_order`` at ``x``, stacked on a new leading axis.

    One pass of the three-term recurrence
    ``He_{k+1} = x He_k - k He_{k-1}`` — forward-stable for the
    moderate orders a collocation basis uses (the recurrence
    coefficients are exact small integers, so no cancellation beyond
    the polynomials' own conditioning enters).  Returns shape
    ``(order + 1,) + shape(x)``.
    """
    if order < 0:
        raise StochasticError(f"order must be >= 0, got {order}")
    x = np.asarray(x, dtype=float)
    values = np.empty((order + 1,) + x.shape)
    values[0] = 1.0
    if order >= 1:
        values[1] = x
    for k in range(1, order):
        values[k + 1] = x * values[k] - k * values[k - 1]
    return values


def hermite_value(order: int, x):
    """Probabilists' Hermite polynomial ``He_order`` evaluated at ``x``."""
    return hermite_values_upto(order, x)[order]


def hermite_norm_squared(multi_index) -> float:
    """``<He_i1 ... He_iD ^2>`` under the standard Gaussian = prod(i_k!)."""
    return float(np.prod([math.factorial(int(i)) for i in multi_index]))


def hermite_triple_product(i: int, j: int, k: int) -> float:
    """``<He_i He_j He_k>`` under the standard Gaussian weight.

    The linearization formula: with ``s = (i + j + k) / 2``,

        ``<He_i He_j He_k> = i! j! k! / ((s-i)! (s-j)! (s-k)!)``

    when ``i + j + k`` is even and the triangle inequality
    ``s >= max(i, j, k)`` holds, else 0.  These are the Galerkin
    coupling coefficients of products of chaos expansions.
    """
    for order in (i, j, k):
        if order < 0:
            raise StochasticError(f"order must be >= 0, got {order}")
    total = i + j + k
    if total % 2:
        return 0.0
    s = total // 2
    if s < max(i, j, k):
        return 0.0
    return (math.factorial(i) * math.factorial(j) * math.factorial(k)
            / (math.factorial(s - i) * math.factorial(s - j)
               * math.factorial(s - k)))


def multi_indices_upto(dim: int, order: int) -> list:
    """All multi-indices with total order ``<= order``, graded order.

    For ``order = 2`` this is the paper's quadratic basis:
    1 constant + ``d`` linear + ``d`` pure-quadratic + ``C(d,2)`` cross
    terms = ``(d+1)(d+2)/2`` coefficients.
    """
    if dim < 1:
        raise StochasticError(f"dim must be >= 1, got {dim}")
    if order < 0:
        raise StochasticError(f"order must be >= 0, got {order}")
    indices = [tuple([0] * dim)]
    for total in range(1, order + 1):
        indices.extend(_compositions(dim, total))
    return indices


@functools.lru_cache(maxsize=64, typed=True)
def _total_degree(dim: int, order: int) -> tuple:
    """``(indices, norms_squared, max axis order)`` of one total-degree
    basis, built once per process: every payload decode, fit and
    adaptive driver builds one, and rebuilding the paper's d=7
    quadratic basis took ~0.4 ms.  The indices are a tuple and the
    norms read-only, so no caller can change what the next one gets."""
    indices = tuple(multi_indices_upto(dim, order))
    norms = np.array([hermite_norm_squared(ix) for ix in indices])
    norms.flags.writeable = False
    return indices, norms, max(max(index) for index in indices)


def _compositions(dim: int, total: int) -> list:
    """Multi-indices of exactly ``total`` over ``dim`` slots."""
    if dim == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for tail in _compositions(dim - 1, total - head):
            out.append((head,) + tail)
    return out


def _validated_indices(dim: int, indices) -> list:
    """Normalize an explicit multi-index set: int tuples, deduped,
    sorted by (total degree, lexicographic) with the constant first."""
    seen = set()
    out = []
    for index in indices:
        index = tuple(int(a) for a in index)
        if len(index) != dim or any(a < 0 for a in index):
            raise StochasticError(
                f"basis index must be {dim} non-negative orders, "
                f"got {index}")
        if index in seen:
            continue
        seen.add(index)
        out.append(index)
    if (0,) * dim not in seen:
        raise StochasticError(
            "an explicit basis must contain the constant index "
            "(the mean is its coefficient)")
    return sorted(out, key=lambda a: (sum(a), a))


class _BasisPlan:
    """What :meth:`HermiteBasis.evaluate` and the corner query derive
    from one index list, derived once: each row's nonzero
    ``(order, axis)`` factors in axis order, and the rows of the
    linear terms with the axis of each."""

    def __init__(self, indices: list):
        self.indices = list(indices)
        self.factors = [[(order, axis) for axis, order in enumerate(index)
                         if order] for index in self.indices]
        linear = [row for row, index in enumerate(self.indices)
                  if sum(index) == 1]
        self.linear_rows = np.array(linear, dtype=np.intp)
        self.linear_axes = np.array(
            [self.indices[row].index(1) for row in linear], dtype=np.intp)
        self.linear_rows.flags.writeable = False
        self.linear_axes.flags.writeable = False


@dataclass
class HermiteBasis:
    """A multivariate Hermite basis.

    Parameters
    ----------
    dim:
        Number of stochastic directions.
    order:
        Total-degree truncation (the paper's basis is ``order=2``).
        Ignored when ``indices`` is given.
    indices:
        Optional *explicit* multi-index set (anisotropic / order-
        adaptive truncation).  Normalized to graded-lexicographic
        order with the constant index first; ``order`` then reports
        the largest total degree present.  ``truncation`` records
        which flavor was built (``"total"`` or ``"explicit"``).

    A total-degree basis shares its read-only ``norms_squared`` with
    every other instance of the same ``(dim, order)``; its ``indices``
    list is its own.
    """

    dim: int
    order: int = 2
    indices: list = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.indices is None:
            indices, self.norms_squared, self._max_axis_order = \
                _total_degree(self.dim, self.order)
            # A list of its own: appending to it leaves the shared
            # build (and the next instance) as it was.
            self.indices = list(indices)
            self.truncation = "total"
            return
        if self.dim < 1:
            raise StochasticError(f"dim must be >= 1, got {self.dim}")
        self.indices = _validated_indices(self.dim, self.indices)
        self.truncation = "explicit"
        self.order = max(sum(index) for index in self.indices)
        self.norms_squared = np.array(
            [hermite_norm_squared(ix) for ix in self.indices])
        self._max_axis_order = max(
            max(index) for index in self.indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    def _plan(self) -> _BasisPlan:
        """The :class:`_BasisPlan` of the current ``indices``, rebuilt
        only when they no longer equal the copy it was built from."""
        plan = self.__dict__.get("_cached_plan")
        if plan is None or plan.indices != self.indices:
            plan = self._cached_plan = _BasisPlan(self.indices)
        return plan

    def linear_terms(self) -> tuple:
        """``(rows, axes)``: the rows of the linear terms
        ``He_1(zeta_axis)`` and the axis of each, as read-only index
        arrays."""
        plan = self._plan()
        return plan.linear_rows, plan.linear_axes

    def describe(self) -> dict:
        """JSON-ready basis identity for sidecars and responses."""
        return {
            "kind": ("total-degree" if self.truncation == "total"
                     else "explicit"),
            "order": int(self.order),
            "size": int(self.size),
        }

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Design matrix ``(num_points, size)`` of basis values.

        ``points`` has shape ``(num_points, dim)`` (a single point may
        be passed as ``(dim,)``).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise StochasticError(
                f"points must have {self.dim} columns, got {points.shape}")
        # Block by block, precompute 1-D values for each order and
        # dimension once, one contiguous row per (order, axis), and
        # build the block's design transposed so every basis function
        # is a contiguous row: the product of its nonzero-order factors
        # in axis order (1.0 when there are none), the same products as
        # a per-column loop.  Each block lands transposed in the one
        # C-order output, the operand layout the GEMM of
        # PolynomialChaos.evaluate has always seen, so its sums (and
        # samples) are bitwise unchanged.
        factors = self._plan().factors
        out = np.empty((points.shape[0], self.size))
        for start in range(0, points.shape[0], EVALUATE_BLOCK):
            block = points[start:start + EVALUATE_BLOCK]
            per_order = hermite_values_upto(
                self._max_axis_order, np.ascontiguousarray(block.T))
            design = np.empty((self.size, block.shape[0]))
            for row, pairs in zip(design, factors):
                if not pairs:
                    row[:] = 1.0
                    continue
                np.copyto(row, per_order[pairs[0]])
                for pair in pairs[1:]:
                    np.multiply(row, per_order[pair], out=row)
            out[start:start + block.shape[0]] = design.T
        return out
