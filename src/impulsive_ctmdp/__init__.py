"""Discounted CTMDPs with gradual and impulsive controls.

Solver (policy iteration from an embedded-chain warm start; every answer
carries a certified gap within the requested tolerance, and monotone value
iteration stays as the reference), intervention-chain analysis, batched
jump-process Monte Carlo, and the epidemic-with-carriers instance with its
analytic threshold solution.
"""

from ._ops import uniformized_row
from .bellman import (
    Direction,
    NonConvergenceError,
    PolicyExtractionError,
    SolveReport,
    StationaryPolicy,
    ValueFunction,
    bellman_apply,
    bellman_residual,
    evaluate_policy,
    extract_policy,
    solve,
    value_iterate,
)
from .epidemic import (
    CarrierContractionError,
    CarrierValue,
    EpidemicParams,
    analytic_value,
    build_epidemic_model,
    lambda_star,
    solve_carrier_equation,
    threshold_policy,
)
from .intervention import (
    ChainAnalysis,
    ImproperChainError,
    InterventionChain,
    analyze_chains,
)
from .model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
    Violation,
    validate_model,
)
from .simulate import (
    CostEstimate,
    DynkinReport,
    Trajectory,
    dynkin_check,
    estimate_cost,
    replication_rng,
    sample_chain,
    simulate_spaced,
    simulate_trajectory,
)

__all__ = [
    "ActionCatalog", "CarrierContractionError", "CarrierValue", "ChainAnalysis",
    "CostEstimate", "CostModel", "CtmdpModel", "Direction", "DynkinReport",
    "EpidemicParams", "ImproperChainError", "ImpulseKernel", "InterventionChain",
    "NonConvergenceError", "PolicyExtractionError", "RateKernel", "SolveReport",
    "StateSpace", "StationaryPolicy", "Trajectory", "ValueFunction", "Violation",
    "analytic_value", "analyze_chains", "bellman_apply", "bellman_residual",
    "build_epidemic_model", "dynkin_check", "estimate_cost", "evaluate_policy",
    "extract_policy", "lambda_star", "replication_rng", "sample_chain",
    "simulate_spaced", "simulate_trajectory", "solve", "solve_carrier_equation",
    "threshold_policy", "uniformized_row", "validate_model", "value_iterate",
]

__version__ = "0.1.0"
