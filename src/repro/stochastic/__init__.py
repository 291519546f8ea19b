"""Stochastic machinery: the statistical side of the paper.

Hermite polynomial chaos (Section II.B), sparse-grid Gauss-Hermite
collocation after Zhu et al., PFA / weighted-PFA variable reduction
(Section III.C), the SSCM driver that builds the quadratic statistical
model, and the Monte-Carlo reference driver.
"""

from repro.stochastic.hermite import (
    hermite_value,
    hermite_values_upto,
    hermite_norm_squared,
    hermite_triple_product,
    multi_indices_upto,
    HermiteBasis,
)
from repro.stochastic.gauss_hermite import gauss_hermite_rule
from repro.stochastic.sparse_grid import (
    SparseGrid,
    smolyak_sparse_grid,
    paper_point_count,
    tensor_grid,
)
from repro.stochastic.pce import PolynomialChaos
from repro.stochastic.pfa import pfa_reduce, ReductionMap
from repro.stochastic.wpfa import wpfa_reduce
from repro.stochastic.reduction import ReducedSpace, reduce_groups
from repro.stochastic.sscm import SSCMResult, run_sscm
from repro.stochastic.montecarlo import MonteCarloResult, run_monte_carlo
from repro.stochastic.sobol import (
    main_effect_indices,
    total_effect_indices,
    group_indices,
    group_indices_from_reduced_space,
)

__all__ = [
    "hermite_value",
    "hermite_values_upto",
    "hermite_norm_squared",
    "hermite_triple_product",
    "multi_indices_upto",
    "HermiteBasis",
    "gauss_hermite_rule",
    "SparseGrid",
    "smolyak_sparse_grid",
    "paper_point_count",
    "tensor_grid",
    "PolynomialChaos",
    "pfa_reduce",
    "wpfa_reduce",
    "ReductionMap",
    "ReducedSpace",
    "reduce_groups",
    "SSCMResult",
    "run_sscm",
    "MonteCarloResult",
    "run_monte_carlo",
    "main_effect_indices",
    "total_effect_indices",
    "group_indices",
    "group_indices_from_reduced_space",
]
