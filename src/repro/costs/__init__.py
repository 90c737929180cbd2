"""Multi-objective cost substrate.

This package contains the cost-vector algebra from Section 3 of the paper
(dominance, strict dominance, approximate dominance, Pareto plan sets) and the
multi-objective cost model used to cost query plans (Section 6.1 uses execution
time, number of reserved cores, and result precision; the algorithm itself
supports any metric whose aggregation function is built from sum, max, min and
multiplication by constants -- the "PONO class" of Section 5.1).

:class:`CostVector` is the public value type; :class:`CostMatrix` is its
structure-of-arrays companion for whole-block dominance operations, backed by
the batched kernel in :mod:`repro.kernel` (pure-Python loops, or numpy when
available -- auto-selected at import, overridable via the
``REPRO_KERNEL_BACKEND`` environment variable).
"""

from repro.costs.vector import CostVector
from repro.costs.matrix import CostBlock, CostMatrix
from repro.costs.dominance import (
    dominates,
    strictly_dominates,
    approximately_dominates,
    within_bounds,
    exceeds_bounds,
)
from repro.costs.pareto import (
    pareto_filter,
    is_pareto_optimal,
    approximation_error,
    is_alpha_cover,
)
from repro.costs.aggregation import (
    AggregationFunction,
    SumAggregation,
    MaxAggregation,
    MinAggregation,
    ScaledSumAggregation,
    PrecisionLossAggregation,
    PipelineMaxAggregation,
)
from repro.costs.metrics import (
    Metric,
    MetricSet,
    EXECUTION_TIME,
    MONETARY_FEES,
    ENERGY,
    RESERVED_CORES,
    IO_LOAD,
    BUFFER_SPACE,
    RESULT_PRECISION_LOSS,
    default_metric_set,
    paper_metric_set,
)
from repro.costs.model import MultiObjectiveCostModel, CostModelConfig

__all__ = [
    "CostVector",
    "CostMatrix",
    "CostBlock",
    "dominates",
    "strictly_dominates",
    "approximately_dominates",
    "within_bounds",
    "exceeds_bounds",
    "pareto_filter",
    "is_pareto_optimal",
    "approximation_error",
    "is_alpha_cover",
    "AggregationFunction",
    "SumAggregation",
    "MaxAggregation",
    "MinAggregation",
    "ScaledSumAggregation",
    "PrecisionLossAggregation",
    "PipelineMaxAggregation",
    "Metric",
    "MetricSet",
    "EXECUTION_TIME",
    "MONETARY_FEES",
    "ENERGY",
    "RESERVED_CORES",
    "IO_LOAD",
    "BUFFER_SPACE",
    "RESULT_PRECISION_LOSS",
    "default_metric_set",
    "paper_metric_set",
    "MultiObjectiveCostModel",
    "CostModelConfig",
]
