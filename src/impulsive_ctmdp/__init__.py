"""Discounted CTMDPs with gradual and impulsive controls.

Solver (embedded-chain sweeps, or policy evaluations where sweeps would cost
more than a factor; every answer carries the policy it ended on and a
certified gap within the requested tolerance, and monotone value iteration
stays as the reference), intervention-chain analysis, batched
jump-process Monte Carlo, and the epidemic-with-carriers instance with its
analytic threshold solution.
"""

import importlib

# Each public name and the module that defines it.  A module loads on the
# first read of one of its names (PEP 562), so a command that only parses
# and validates never imports scipy or the solver.
_HOME = {name: module for module, names in {
    "_ops": "uniformized_row",
    "bellman": "Direction SolveReport ValueFunction bellman_apply bellman_residual "
               "evaluate_policy extract_policy solve value_iterate",
    "epidemic": "CarrierContractionError CarrierValue EpidemicParams analytic_value build_epidemic_model "
                "lambda_star solve_carrier_equation threshold_policy",
    "errors": "ImproperChainError NonConvergenceError",
    "intervention": "ChainAnalysis InterventionChain analyze_chains",
    "model": "ActionCatalog CostModel CtmdpModel ImpulseKernel RateKernel StateSpace StationaryPolicy Violation "
             "validate_model",
    "simulate": "CostEstimate DynkinReport Trajectory dynkin_check estimate_cost replication_rng sample_chain "
                "simulate_spaced simulate_trajectory",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
