"""Shared micro-model builders and the solved desk-scale epidemic fixture."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from impulsive_ctmdp import (
    EpidemicParams,
    StationaryPolicy,
    build_epidemic_model,
    extract_policy,
    solve,
    solve_carrier_equation,
)
from impulsive_ctmdp.model import (
    ActionCatalog,
    CostModel,
    CtmdpModel,
    ImpulseKernel,
    RateKernel,
    StateSpace,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO_ROOT / "models"


def two_state(lam: float | None = None, mu: float = 1.0, eta: float = 1.0,
              rate1: float | None = None) -> CtmdpModel:
    """Absorbing chain 1 -> 0 at rate mu, running cost 1 at state 1.

    With ``lam`` set, state 1 also carries a reset impulse to 0 of that cost.
    ``rate1`` overrides the decay rate (0 makes state 1 absorbing too).
    """
    r1 = mu if rate1 is None else rate1
    has_imp = lam is not None
    return CtmdpModel(
        states=StateSpace(("0", "1")),
        actions=ActionCatalog(
            gradual={"0": ("wait",), "1": ("wait",)},
            impulsive={"0": (), "1": ("reset",) if has_imp else ()},
        ),
        rates=RateKernel(rows={("0", "wait"): (),
                               ("1", "wait"): (("0", r1),) if r1 > 0 else ()},
                         K_rate=mu),
        impulses=ImpulseKernel(rows={("1", "reset"): (("0", 1.0),)} if has_imp else {}),
        costs=CostModel(
            gradual_cost={("0", "wait"): 0.0, ("1", "wait"): 1.0},
            impulse_cost={("1", "reset"): lam} if has_imp else {},
            eta=eta, K_cost=1.0, c_lower=lam if has_imp else 0.3,
        ),
    )


def zero_cost_model(n: int = 3) -> CtmdpModel:
    """Cycle of ``n`` states with zero running cost and no impulses."""
    labels = tuple(str(k) for k in range(n))
    rows = {(labels[k], "wait"): ((labels[(k + 1) % n], 1.0),) for k in range(n)}
    return CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={s: ("wait",) for s in labels},
                              impulsive={s: () for s in labels}),
        rates=RateKernel(rows=rows, K_rate=1.0),
        impulses=ImpulseKernel(rows={}),
        costs=CostModel(gradual_cost={(s, "wait"): 0.0 for s in labels},
                        impulse_cost={}, eta=1.0, K_cost=1.0, c_lower=0.3),
    )


def improper_model() -> CtmdpModel:
    """Two states whose impulses relocate to each other (a 2-cycle)."""
    return CtmdpModel(
        states=StateSpace(("x", "y")),
        actions=ActionCatalog(gradual={"x": ("wait",), "y": ("wait",)},
                              impulsive={"x": ("swap",), "y": ("swap",)}),
        rates=RateKernel(rows={("x", "wait"): (), ("y", "wait"): ()}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("x", "swap"): (("y", 1.0),),
                                     ("y", "swap"): (("x", 1.0),)}),
        costs=CostModel(gradual_cost={("x", "wait"): 0.0, ("y", "wait"): 0.0},
                        impulse_cost={("x", "swap"): 0.5, ("y", "swap"): 0.5},
                        eta=1.0, K_cost=1.0, c_lower=0.5),
    )


def improper_policy(model: CtmdpModel) -> StationaryPolicy:
    """Flag every impulse-capable state; on the 2-cycle model this never lands."""
    flags = np.array([bool(model.actions.impulsive[s]) for s in model.states.labels])
    return StationaryPolicy(phi_g=np.zeros(model.states.N, dtype=np.int64), phi_i=np.where(flags, 0, -1))


def geometric_model(p_stay: float = 0.5, cost: float = 0.7) -> CtmdpModel:
    """Impulse at x returns to x with probability ``p_stay``, else lands at z.

    Expected chain cost is cost / (1 - p_stay).
    """
    return CtmdpModel(
        states=StateSpace(("x", "z")),
        actions=ActionCatalog(gradual={"x": ("wait",), "z": ("wait",)},
                              impulsive={"x": ("jump",), "z": ()}),
        rates=RateKernel(rows={("x", "wait"): (), ("z", "wait"): ()}, K_rate=1.0),
        impulses=ImpulseKernel(rows={("x", "jump"): (("x", p_stay), ("z", 1.0 - p_stay))}),
        costs=CostModel(gradual_cost={("x", "wait"): 0.0, ("z", "wait"): 0.0},
                        impulse_cost={("x", "jump"): cost},
                        eta=1.0, K_cost=1.0, c_lower=cost),
    )


def desk_params(lam: float = 0.2, c_max: int = 30) -> EpidemicParams:
    """The desk-scale epidemic instance used throughout the acceptance suite."""
    return EpidemicParams(
        S=10, I=2, c0=2, C_max=c_max, eta=1.0, kappa_r=1.0, immunization_cost=lam,
        rho_b=(0.0,) + (1.0,) * c_max,
        rho_d=(0.0,) + (1.0,) * c_max,
        kappa_i=tuple(min(c, 10) for c in range(c_max + 1)),
    )


def rho_free_params(lam: float = 0.2, c_max: int = 30) -> EpidemicParams:
    """Variant with frozen carrier count (no births or deaths); v is closed form."""
    return EpidemicParams(
        S=10, I=2, c0=2, C_max=c_max, eta=1.0, kappa_r=1.0, immunization_cost=lam,
        rho_b=(0.0, 0.0), rho_d=(0.0, 0.0),
        kappa_i=tuple(min(c, 10) for c in range(c_max + 1)),
    )


@pytest.fixture(scope="session")
def desk_solved():
    """Generic solve of the desk instance at lambda = 0.2, timed once."""
    params = desk_params()
    model = build_epidemic_model(params)
    t0 = time.perf_counter()
    report = solve(model)
    elapsed = time.perf_counter() - t0
    policy = extract_policy(model, report.V)
    cv = solve_carrier_equation(params)
    return {"params": params, "model": model, "report": report,
            "policy": policy, "cv": cv, "elapsed": elapsed}
