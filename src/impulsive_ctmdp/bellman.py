"""Optimality operator, monotone value iterations, policy iteration, and
policy extraction.

The operator mixes a uniformized gradual branch (contraction of modulus
K/(K+eta)) with an impulsive branch of modulus one.  Iterating it from
+K/eta gives a pointwise non-increasing sequence, from -K/eta a
non-decreasing one; both converge to the unique bounded fixed point, which
is the optimal discounted cost.  :func:`solve` finds that fixed point
exactly, up to roundoff, by policy iteration started from a short run of
the embedded jump chain's operator from above (no self-loop, so each state
contracts at its own rate q/(eta+q)).  :func:`value_iterate` is the
reference those monotone iterations define; :func:`solve` does not use it.
One greedy rule, :func:`_greedy`, picks the policy in :func:`solve` and in
:func:`extract_policy`.  A policy's evaluation first asks
:func:`~impulsive_ctmdp.intervention.analyze_chains`, from the module below
this one, whether the policy is feasible and its impulse chains land.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._ops import (
    CompiledModel,
    apply_embedded,
    apply_operator,
    compile_model,
    factor,
    gradual_branch,
    impulsive_branch,
    per_policy,
    policy_pairs,
    segment_argmin,
)
from .errors import DEFAULT_TOL, NonConvergenceError
from .intervention import analyze_chains
from .model import CtmdpModel, StationaryPolicy

DEFAULT_MAX_ITER = 10 ** 6
DEFAULT_TOL_SET = 1e-8
ROUNDOFF = 1e-14  # improvement threshold of policy iteration, per unit of K/eta


class Direction(enum.Enum):
    FROM_ABOVE = "from_above"
    FROM_BELOW = "from_below"


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Real vector over states, bounded by K/eta for anything produced here."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of :func:`solve`.

    ``policy`` is the greedy policy that policy iteration ended on and ``V``
    its value, so V* lies in [V - ``gap``, V] up to roundoff.  ``gap`` = U *
    ``residual`` is at most the requested tol; ``residual`` is max |T V - V|.
    ``iterations_above`` counts the warm start's embedded-chain sweeps from
    +K/eta, ``evaluations`` the policy evaluations.  ``iterations_below`` is
    always 0; it stays so that readers of earlier reports keep their key.
    """

    V: ValueFunction
    policy: StationaryPolicy
    iterations_above: int
    iterations_below: int
    residual: float
    gap: float
    evaluations: int


def check_state_values(model: CtmdpModel, name: str, values: np.ndarray) -> None:
    """Raise ValueError, naming ``name``, unless ``values`` holds one finite value per state."""
    if values.shape != (model.states.N,) or not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must hold one finite value per state ({model.states.N})")


def bellman_apply(model: CtmdpModel, F: ValueFunction) -> ValueFunction:
    """One application of the optimality operator."""
    comp = compile_model(model)
    return ValueFunction(apply_operator(comp, F.values))


def bellman_residual(model: CtmdpModel, V: ValueFunction) -> float:
    """Sup-norm of the fixed-point defect of ``V``."""
    comp = compile_model(model)
    return float(np.max(np.abs(apply_operator(comp, V.values) - V.values)))


def value_iterate(
    model: CtmdpModel,
    direction: Direction,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ValueFunction, int]:
    """Monotone iteration of the optimality operator from +-K/eta.

    Stops when the sup-norm step drops below ``tol``; raises
    :class:`NonConvergenceError` if ``max_iter`` is hit first.  Each iterate
    is checked to move in the stated direction.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    comp = compile_model(model)
    bound = comp.K / comp.eta
    sign = 1.0 if direction is Direction.FROM_ABOVE else -1.0
    V = np.full(comp.N, sign * bound)
    slack = 1e-12 * (1.0 + bound)
    step = np.inf
    for it in range(1, max_iter + 1):
        Vn = apply_operator(comp, V)
        drift = Vn - V if direction is Direction.FROM_BELOW else V - Vn
        if drift.size and float(np.min(drift)) < -slack:
            raise AssertionError("iteration moved against its monotone direction")
        step = float(np.max(np.abs(Vn - V))) if V.size else 0.0
        V = Vn
        if step < tol:
            if float(np.max(np.abs(V))) > bound + 1e-9:
                raise AssertionError("iterate escaped the K/eta bound")
            return ValueFunction(V), it
    raise NonConvergenceError(
        f"value iteration did not reach tol={tol} in {max_iter} iterations (last step {step})",
        V, step, max_iter,
    )


def extract_policy(model: CtmdpModel, V: ValueFunction, tol_set: float = DEFAULT_TOL_SET) -> StationaryPolicy:
    """The greedy policy at ``V``, by the rule :func:`solve` uses.

    A state keeps its best gradual action unless an impulse beats it by more
    than ``tol_set`` >= 0.  Exact ties go to the gradual branch and then to the
    lowest catalog index.  ``V`` must hold one finite value per state.
    """
    if not tol_set >= 0:
        raise ValueError("tol_set must be >= 0")
    check_state_values(model, "V", V.values)
    comp = compile_model(model)
    return _as_policy(comp, _greedy(comp, V.values, slack=tol_set)[0])


def evaluate_policy(model: CtmdpModel, policy: StationaryPolicy, tol: float = DEFAULT_TOL) -> ValueFunction:
    """Discounted cost of a fixed stationary policy, by one sparse LU solve.

    The value solves V = B V + c.  Gradual states carry the uniformized
    one-step rows at phi_g (B = (J + diag(K - q))/(K+eta), c = running
    cost/(K+eta)); flagged states carry the impulse rows at phi_i (B = Q,
    c = impulse cost).  An improper policy raises :class:`ImproperChainError`
    from :func:`~impulsive_ctmdp.intervention.analyze_chains`, before I - B
    is factored.  Raises
    :class:`NonConvergenceError` when I - B is singular, when SuperLU runs
    out of memory, or when the defect |B V + c - V| exceeds ``tol`` > 0.
    The solve is done once per (model, policy) while both live and is shared
    by equal policies; ``tol`` is checked on every call.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    V, defect = _evaluation(model, policy)
    if not defect <= tol:  # also catches a NaN defect
        raise NonConvergenceError(f"policy evaluation defect {defect} exceeds tol={tol}", V.values, defect, 1)
    return V


@per_policy
def _evaluation(model: CtmdpModel, policy: StationaryPolicy) -> tuple[ValueFunction, float]:
    """The policy's value and its defect max |B V + c - V|; see :func:`evaluate_policy`."""
    analyze_chains(model, policy)  # checks the policy and its properness
    comp = compile_model(model)
    K, eta = comp.K, comp.eta
    g_rows, flagged, i_rows = policy_pairs(comp, policy)
    # Each state's own row: uniformized as in gradual_branch, or its impulse row.
    pick = np.arange(comp.N)
    pick[flagged] = comp.N + np.arange(flagged.size)
    uniformized = (comp.J[g_rows] + sp.diags(K - comp.g_total_rate[g_rows])) / (K + eta)
    B = sp.vstack([uniformized, comp.Q_imp[i_rows]], format="csr")[pick]
    c = np.concatenate([comp.g_cost[g_rows] / (K + eta), comp.i_cost[i_rows]])[pick]
    lu = factor(sp.identity(comp.N, format="csr") - B, "policy system")
    if lu is None:
        raise NonConvergenceError("policy evaluation failed; I - B is singular", np.full(comp.N, np.nan), np.inf, 0)
    V = lu.solve(c)
    return ValueFunction(V), float(np.max(np.abs(B @ V + c - V)))


def solve(model: CtmdpModel, tol: float = DEFAULT_TOL) -> SolveReport:
    """Optimal value by Howard policy iteration, with a certified error bound.

    The warm start iterates the embedded-chain operator
    (:func:`~impulsive_ctmdp._ops.apply_embedded`) from +K/eta in blocks of
    ceil((K+eta)/eta) sweeps until the greedy policy's intervene region
    repeats across two blocks, or until a sweep moves V by less than ``tol``.
    Here and in the improvement step, "greedy" is :func:`_greedy` keeping a
    state's current decision unless another is better by more than roundoff,
    so a tie cannot flip on last-digit noise.  The embedded-chain operator is monotone and
    has the optimality operator's fixed point, so every warm-start iterate
    is a supersolution of both; and impulses cost at least c_lower > 0, so
    that greedy policy has no closed impulse cycle.  Policy iteration then
    alternates :func:`evaluate_policy` with a greedy improvement, and stops
    when the policy repeats.  Should that policy's gap exceed ``tol`` (at a
    tie, where the roundoff slack keeps a decision that is worse by about
    the slack), it goes on improving at slack 0 and stops at the first
    policy whose gap is within ``tol``.  The report carries that policy and its value V,
    and ``gap`` bounds V - V* >= 0 by U * |T V - V|, where
    U = (K+eta)/eta + 2K/(eta c_lower) bounds the discounted count of
    uniformized steps and impulses.

    A returned report always has ``gap <= tol``.  A failed evaluation is
    raised as it is; no greedy policy on a valid model is improper.  Anything
    else raises :class:`NonConvergenceError`: a policy that cycles, a warm
    start that would pass ``DEFAULT_MAX_ITER`` sweeps, and a certificate
    above ``tol`` (with ``last`` the policy's V and ``step`` its ``gap``; a
    ``tol`` below the roundoff floor ends here).
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    comp = compile_model(model)
    K, eta = comp.K, comp.eta
    n_g = comp.g_cost.size
    roundoff = ROUNDOFF * (1.0 + K / eta)
    block = math.ceil((K + eta) / eta)
    V = np.full(comp.N, K / eta)
    sweeps, pick, step = 0, None, np.inf
    while step >= tol:
        if sweeps + block > DEFAULT_MAX_ITER:
            raise NonConvergenceError(
                f"warm start would pass {DEFAULT_MAX_ITER} sweeps (last step {step})", V, step, sweeps)
        for _ in range(block):
            Vn = apply_embedded(comp, V)
            step = float(np.max(np.abs(V - Vn)))
            V = Vn
            sweeps += 1
            if step < tol:
                break
        previous = pick
        pick, _ = _greedy(comp, V, previous, 0.0 if previous is None else roundoff)
        if previous is not None and np.array_equal(pick >= n_g, previous >= n_g):
            break

    U = (K + eta) / eta + 2.0 * K / (eta * model.costs.c_lower)
    seen: set[StationaryPolicy] = set()
    slack = roundoff
    while True:
        policy = _as_policy(comp, pick)
        if policy in seen:
            raise NonConvergenceError(
                f"policy iteration cycled after {len(seen)} evaluations", value.values, np.inf, len(seen))
        seen.add(policy)
        value = evaluate_policy(model, policy, tol)
        improved, TV = _greedy(comp, value.values, pick, slack)
        residual = float(np.max(np.abs(TV - value.values)))
        gap = U * residual
        stable = np.array_equal(improved, pick)
        if stable and slack and not gap <= tol:
            # A near-tie kept by the roundoff slack leaves the gap above tol:
            # improve at slack 0 and stop at the first policy that certifies.
            slack = 0.0
            improved, _ = _greedy(comp, value.values, pick, slack)
            stable = np.array_equal(improved, pick)
        if stable or (not slack and gap <= tol):
            break
        pick = improved
    if not gap <= tol:
        raise NonConvergenceError(f"certified gap {gap} exceeds tol={tol}", value.values, gap, len(seen))
    return SolveReport(V=value, policy=policy, iterations_above=sweeps, iterations_below=0,
                       residual=residual, gap=gap, evaluations=len(seen))


def _greedy(comp: CompiledModel, V: np.ndarray, keep: np.ndarray | None = None,
            slack: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Each state's greedy position in (gradual pairs, impulse pairs) at ``V``, and T V.

    Exact ties go to the gradual branch and then to the lowest catalog index.
    A state keeps its position in ``keep`` (by default its best gradual pair)
    unless another decision is better by more than ``slack``.
    """
    g = gradual_branch(comp, V)
    q = np.concatenate([g, impulsive_branch(comp, V)])
    TV, g_off = segment_argmin(g, comp.g_ptr)
    g_best = comp.g_ptr[:-1] + g_off
    i_min, i_off = segment_argmin(q[g.size:], comp.i_ptr)
    wins = i_min < TV[comp.i_states]
    TV[comp.i_states[wins]] = i_min[wins]
    best = g_best.copy()
    best[comp.i_states[wins]] = g.size + comp.i_ptr[:-1][wins] + i_off[wins]
    keep = g_best if keep is None else keep
    return np.where(q[keep] <= TV + slack, keep, best), TV


def _as_policy(comp: CompiledModel, pair: np.ndarray) -> StationaryPolicy:
    """Stationary policy from each state's chosen position in (gradual pairs, impulse pairs)."""
    n_g = comp.g_cost.size
    impulsive = pair >= n_g
    return StationaryPolicy(
        phi_g=np.where(impulsive, 0, pair - comp.g_ptr[:-1]),
        phi_i=np.where(impulsive, pair - n_g - comp.i_first, -1),
    )
