"""Optimality operator, monotone value iterations, and policy extraction.

The operator mixes a uniformized gradual branch (contraction of modulus
K/(K+eta)) with an impulsive branch of modulus one.  Iterating it from
+K/eta gives a pointwise non-increasing sequence, from -K/eta a
non-decreasing one; both converge to the unique bounded fixed point, which
is the optimal discounted cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._ops import apply_operator, compile_model, gradual_branch, impulsive_branch, policy_rows
from .model import CtmdpModel

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10 ** 6
DEFAULT_TOL_SET = 1e-8
LANDING_ROW_TOL = 1e-10  # accepted |1 - mass| of a proper policy's chain exits


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
class StationaryPolicy:
    """Wait/intervene partition plus the chosen action at every state.

    ``impulsive[x]`` flags the intervene region.  ``phi_g`` is total (on the
    intervene region it is an arbitrary feasible choice and never applied);
    ``phi_i`` is defined exactly on the flagged states.  Action values are
    positions in the state's catalog list.
    """

    impulsive: np.ndarray
    phi_g: np.ndarray
    phi_i: dict[int, int]

    def __post_init__(self) -> None:
        imp = np.asarray(self.impulsive, dtype=bool)
        imp.flags.writeable = False
        pg = np.asarray(self.phi_g, dtype=np.int64)
        pg.flags.writeable = False
        object.__setattr__(self, "impulsive", imp)
        object.__setattr__(self, "phi_g", pg)

    def gradual_action(self, model: CtmdpModel, x: str) -> str:
        k = model.states.index[x]
        return model.actions.gradual[x][int(self.phi_g[k])]

    def impulse_action(self, model: CtmdpModel, x: str) -> str:
        k = model.states.index[x]
        return model.actions.impulsive[x][self.phi_i[k]]


@dataclass(frozen=True, eq=False)
class SolveReport:
    V: ValueFunction
    iterations_above: int
    iterations_below: int
    residual: float
    gap: float


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted, or a policy system singular or off its tolerance."""

    def __init__(self, message: str, last: np.ndarray, step: float, iterations: int):
        super().__init__(message)
        self.last = last
        self.step = step
        self.iterations = iterations


class PolicyExtractionError(RuntimeError):
    """A state was flagged for intervention but admits no impulsive action."""


def check_policy(model: CtmdpModel, policy: StationaryPolicy) -> None:
    """Raise ValueError if the policy is infeasible for the model."""
    st = model.states
    if policy.impulsive.shape != (st.N,) or policy.phi_g.shape != (st.N,):
        raise ValueError("policy arrays do not match the state count")
    for x, s in enumerate(st.labels):
        if not 0 <= policy.phi_g[x] < len(model.actions.gradual[s]):
            raise ValueError(f"phi_g out of range at state {s!r}")
        if policy.impulsive[x]:
            n_imp = len(model.actions.impulsive.get(s, ()))
            if n_imp == 0:
                raise ValueError(f"state {s!r} flagged for intervention but has no impulsive action")
            if x not in policy.phi_i or not 0 <= policy.phi_i[x] < n_imp:
                raise ValueError(f"phi_i missing or out of range at state {s!r}")


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
    if tol <= 0:
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
    """Classify states as wait/intervene and pick minimizing actions.

    A state stays gradual when the gradual branch attains V(x) within
    ``tol_set`` (ties prefer gradual); otherwise the impulsive branch must be
    active.  Ties among actions break to the lowest catalog index.
    """
    comp = compile_model(model)
    g = gradual_branch(comp, V.values)
    iv = impulsive_branch(comp, V.values) if comp.i_cost.size else np.empty(0)
    impulsive = np.zeros(comp.N, dtype=bool)
    phi_g = np.zeros(comp.N, dtype=np.int64)
    phi_i: dict[int, int] = {}
    slot = 0
    for x in range(comp.N):
        lo, hi = int(comp.g_ptr[x]), int(comp.g_ptr[x + 1])
        seg = g[lo:hi]
        if float(np.min(seg)) <= V.values[x] + tol_set:
            phi_g[x] = int(np.argmin(seg))
        else:
            if not comp.has_impulse[x]:
                raise PolicyExtractionError(
                    f"state {model.states.labels[x]!r} rejects the gradual branch but has no impulsive action; "
                    "V is not a fixed point at the given tolerance"
                )
            impulsive[x] = True
            phi_g[x] = 0
        if comp.has_impulse[x]:
            ilo, ihi = int(comp.i_ptr[slot]), int(comp.i_ptr[slot + 1])
            if impulsive[x]:
                phi_i[x] = int(np.argmin(iv[ilo:ihi]))
            slot += 1
    return StationaryPolicy(impulsive=impulsive, phi_g=phi_g, phi_i=phi_i)


def evaluate_policy(model: CtmdpModel, policy: StationaryPolicy, tol: float = DEFAULT_TOL) -> ValueFunction:
    """Discounted cost of a fixed stationary policy, by one sparse LU solve.

    The value solves V = B V + c.  Gradual states carry the uniformized
    one-step rows at phi_g (B = K/(K+eta) P, c = running cost/(K+eta));
    flagged states carry the impulse rows at phi_i (B = Q, c = impulse
    cost).  Raises :class:`NonConvergenceError` when the impulsive part of
    the policy does not reach a gradual state with probability one (I - B
    singular, or exit mass off one by more than ``LANDING_ROW_TOL``), or when
    the solution's defect |B V + c - V| exceeds ``tol``.
    """
    check_policy(model, policy)
    comp = compile_model(model)
    K, eta = comp.K, comp.eta
    rows = policy_rows(comp, policy)
    # Stack the gradual and impulse rows, then pick each state's own row.
    pick = np.arange(comp.N)
    pick[rows.flagged] = comp.N + np.arange(rows.flagged.size)
    B = sp.vstack([(K / (K + eta)) * rows.P, rows.Q], format="csr")[pick]
    c = np.concatenate([rows.g_cost / (K + eta), rows.i_cost])[pick]
    # Gradual rows of I - B sum to eta/(K+eta), flagged rows to zero; a proper
    # policy turns that exit mass into probability one at every state.
    exit_mass = np.where(policy.impulsive, 0.0, eta / (K + eta))
    try:
        lu = sp.linalg.splu((sp.identity(comp.N, format="csr") - B).tocsc())
        proper = bool(np.all(np.abs(lu.solve(exit_mass) - 1.0) <= LANDING_ROW_TOL))
    except RuntimeError:  # I - B is exactly singular
        proper = False
    if not proper:
        raise NonConvergenceError(
            "policy evaluation failed; the impulsive part of the policy never reaches a gradual state",
            np.full(comp.N, np.nan), np.inf, 0,
        )
    V = lu.solve(c)
    defect = float(np.max(np.abs(B @ V + c - V)))
    if not defect <= tol:  # also catches a NaN defect
        raise NonConvergenceError(
            f"policy evaluation defect {defect} exceeds tol={tol}",
            V, defect, 1,
        )
    return ValueFunction(V)


def solve(model: CtmdpModel, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Run both monotone iterations and return the lower limit as the value.

    The distance between the two limits ("gap") witnesses uniqueness of the
    bounded fixed point; the residual is recomputed on the returned vector.
    """
    V_above, it_above = value_iterate(model, Direction.FROM_ABOVE, tol, max_iter)
    V_below, it_below = value_iterate(model, Direction.FROM_BELOW, tol, max_iter)
    gap = float(np.max(np.abs(V_above.values - V_below.values)))
    return SolveReport(
        V=V_below,
        iterations_above=it_above,
        iterations_below=it_below,
        residual=bellman_residual(model, V_below),
        gap=gap,
    )
