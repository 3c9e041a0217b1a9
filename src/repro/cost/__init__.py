"""Cost model: parameters, estimate records, and the body/fixpoint estimators."""

from .calibrate import CalibrationResult, CalibrationSample, calibrate_cost_params, kendall_tau
from .estimates import (
    BodyEstimator,
    BodyMemo,
    DerivedOracle,
    EXECUTOR_METHODS,
    LEAF_METHODS,
    derived_ndvs,
    estimate_fixpoint,
)
from .model import (
    CostParams,
    DerivedEstimate,
    Estimate,
    INFINITE_COST,
    StepState,
    clamp_card,
)

__all__ = [
    "BodyEstimator",
    "BodyMemo",
    "CalibrationResult",
    "CalibrationSample",
    "CostParams",
    "calibrate_cost_params",
    "kendall_tau",
    "DerivedEstimate",
    "DerivedOracle",
    "EXECUTOR_METHODS",
    "Estimate",
    "INFINITE_COST",
    "LEAF_METHODS",
    "StepState",
    "clamp_card",
    "derived_ndvs",
    "estimate_fixpoint",
]
