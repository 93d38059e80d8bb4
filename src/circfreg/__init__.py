"""Adaptive orthogonal-series estimation for circular functional linear
regression, with a seeded Monte Carlo harness verifying its convergence-rate
behavior."""

__version__ = "0.2.0"

from .basis import (
    CoefVector,
    WeightVector,
    basis_eval,
    design_matrix,
    function_eval,
    weighted_inner,
    weighted_norm_sq,
)
from .config import ConfigError, RunConfig, config_echo, parse_config, serialize_config
from .datagen import (
    Sample,
    SlopeSpec,
    covariance_kernel,
    default_truncation,
    make_slope,
    simulate,
    slope_tail_bias,
    substream,
    write_sample_csv,
)
from .estimator import (
    SampleMoments,
    SelectionTrace,
    bound_M_hat,
    contrast,
    contrast_curve,
    estimate_beta,
    estimated_scale_curves,
    estimated_scales,
    moments,
    penalty_hat,
    penalty_known,
    select_data_driven,
    select_known,
    write_trace_csv,
)
from .risk import (
    NumericError,
    RiskReport,
    fit_slope,
    fixed_dim_risk_curve,
    oracle_risk,
    risk,
    run_experiment,
    write_risk_csv,
)
from .sequences import (
    PenaltyScales,
    SequenceSpec,
    balance_m_dagger,
    balance_m_star,
    bound_M,
    bound_N,
    intrinsic_scales,
    summability_check,
    theoretical_rate,
)

__all__ = [
    "__version__",
    "CoefVector", "WeightVector", "basis_eval", "design_matrix", "function_eval",
    "weighted_inner", "weighted_norm_sq",
    "SequenceSpec", "PenaltyScales", "intrinsic_scales", "bound_M", "bound_N",
    "balance_m_star", "balance_m_dagger", "theoretical_rate", "summability_check",
    "SlopeSpec", "Sample", "make_slope", "slope_tail_bias", "default_truncation",
    "substream", "simulate", "covariance_kernel", "write_sample_csv",
    "SampleMoments", "SelectionTrace", "moments", "estimate_beta", "contrast",
    "contrast_curve", "penalty_known", "estimated_scales", "estimated_scale_curves",
    "penalty_hat", "bound_M_hat", "select_known", "select_data_driven",
    "write_trace_csv",
    "NumericError", "RiskReport", "risk", "fixed_dim_risk_curve", "oracle_risk",
    "fit_slope", "run_experiment", "write_risk_csv",
    "ConfigError", "RunConfig", "parse_config", "serialize_config", "config_echo",
]
