"""Shared micro-model builders and the solved desk-scale epidemic fixture."""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, strategies as st

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
from impulsive_ctmdp.testing import random_model

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


def mixed_chains(shared_landing: bool = False) -> tuple[CtmdpModel, StationaryPolicy]:
    """Flagged a -> b -> g2 is a sure chain; c samples g1 or g2; d -> c is a
    sure step into that two-target row, so a chain from d is not sure.

    With ``shared_landing``, g1's rate row also targets g2 and c's impulse row
    also targets b, so that folding the sure chain into g2 sums two entries
    into one column, in the policy system and in the chain system."""
    labels = ("g1", "g2", "a", "b", "c", "d")
    g1 = (("a", 1.0), ("d", 0.3)) + ((("g2", 0.2),) if shared_landing else ())
    c = (("g1", 0.4), ("g2", 0.3), ("b", 0.3)) if shared_landing else (("g1", 0.5), ("g2", 0.5))
    m = CtmdpModel(
        states=StateSpace(labels),
        actions=ActionCatalog(gradual={s: ("wait",) for s in labels},
                              impulsive={s: ("go",) if s in "abcd" else () for s in labels}),
        rates=RateKernel(rows={("g1", "wait"): g1, ("g2", "wait"): (("g1", 1.0), ("c", 0.2)),
                               **{(s, "wait"): () for s in "abcd"}}, K_rate=1.5),
        impulses=ImpulseKernel(rows={("a", "go"): (("b", 1.0),), ("b", "go"): (("g2", 1.0),),
                                     ("c", "go"): c, ("d", "go"): (("c", 1.0),)}),
        costs=CostModel(gradual_cost={(s, "wait"): {"g1": 1.0, "g2": 0.5}.get(s, 0.0) for s in labels},
                        impulse_cost={("a", "go"): 0.3, ("b", "go"): 0.4, ("c", "go"): 0.5, ("d", "go"): 0.6},
                        eta=1.0, K_cost=1.0, c_lower=0.3),
    )
    return m, improper_policy(m)


def one_target_rows(seed, data):
    """A random model, some of whose impulse rows collapse to one target, and
    its solved policy, which flags some state; the chains mix sure steps with
    sampled ones.  A slow discount makes intervening pay.  Also returns two
    flagged states and state 0 as starts."""
    m = random_model(seed, max_states=8, eta=0.1)
    rows = dict(m.impulses.rows)
    assume(rows)
    for key in data.draw(st.lists(st.sampled_from(sorted(rows)), unique=True)):
        rows[key] = ((data.draw(st.sampled_from(m.states.labels)), 1.0),)
    m = dataclasses.replace(m, impulses=ImpulseKernel(rows=rows))
    report = solve(m)
    flagged = np.flatnonzero(report.policy.impulsive)
    assume(flagged.size)
    return m, report, [m.states.labels[k] for k in (*flagged[:2], 0)]


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
