"""Exact fractal-dimension toolkit.

Digit-block sets with exact cover counts, box-counting and two-grid
estimators, Moran-equation self-similar dimensions with a classical
fractal catalog, and finite-resolution grid measures with an optimal
interval-partition algorithm.
"""

from .blockset import (
    AFTER_FREES,
    AFTER_ZEROS,
    BlockCellSource,
    BlockSchedule,
    DimReport,
    cover_count,
    digit_role,
    dim_bounds,
    hausdorff_dim,
)
from .boxdim import (
    CellSource,
    CountSeries,
    CriticalExponent,
    IntervalSource,
    RuleSource,
    TwoGridResult,
    classify_d,
    closure_count_check,
    count_series,
    critical_d,
    slope_dim,
    two_grid_dim,
)
from .hypergrid import (
    DeltaPartition,
    HyperGrid,
    InternalSet,
    cantor_stage,
    h_delta_s_dp,
    h_delta_s_greedy,
    outer_h_measure,
)
from .selfsimilar import (
    GeometrySeries,
    IfsRatios,
    PieceRule,
    closed_form_check,
    dim_from_rule,
    fat_cantor,
    moran_solve,
    rule,
)
from .seqgen import (
    GrowthVerdict,
    SequenceSpec,
    dimzero_criterion,
    squared_sum_check,
    tail_domination,
    terms,
)

__version__ = "0.1.0"

__all__ = [
    "AFTER_FREES",
    "AFTER_ZEROS",
    "BlockCellSource",
    "BlockSchedule",
    "CellSource",
    "CountSeries",
    "CriticalExponent",
    "DeltaPartition",
    "DimReport",
    "GeometrySeries",
    "GrowthVerdict",
    "HyperGrid",
    "IfsRatios",
    "InternalSet",
    "IntervalSource",
    "PieceRule",
    "RuleSource",
    "SequenceSpec",
    "TwoGridResult",
    "cantor_stage",
    "classify_d",
    "closed_form_check",
    "closure_count_check",
    "count_series",
    "cover_count",
    "critical_d",
    "digit_role",
    "dim_bounds",
    "dim_from_rule",
    "dimzero_criterion",
    "fat_cantor",
    "h_delta_s_dp",
    "h_delta_s_greedy",
    "hausdorff_dim",
    "moran_solve",
    "outer_h_measure",
    "rule",
    "slope_dim",
    "squared_sum_check",
    "tail_domination",
    "terms",
    "two_grid_dim",
]
