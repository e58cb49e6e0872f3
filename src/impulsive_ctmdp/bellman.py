"""Optimality operator, monotone value iterations, policy iteration, and
policy extraction.

The operator mixes a uniformized gradual branch (contraction of modulus
K/(K+eta)) with an impulsive branch of modulus one.  Iterating it from
+K/eta gives a pointwise non-increasing sequence, from -K/eta a
non-decreasing one; both converge to the unique bounded fixed point, which
is the optimal discounted cost.  :func:`solve` finds that fixed point
exactly, up to roundoff, by policy iteration started from a short run of
the embedded jump chain's operator from above (no self-loop, so each state
contracts at its own rate q/(eta+q)); the two monotone iterations of the
optimality operator remain its fallback.
"""

from __future__ import annotations

import enum
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._ops import (
    CompiledModel,
    apply_embedded,
    apply_operator,
    compile_model,
    gradual_branch,
    impulsive_branch,
    policy_rows,
    segment_argmin,
)
from .model import CtmdpModel

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10 ** 6
DEFAULT_TOL_SET = 1e-8
ROUNDOFF = 1e-14  # improvement threshold of policy iteration, per unit of K/eta
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
    positions in the state's catalog list.  All three are read-only copies
    of what is passed in, since the simulator and the chain analysis cache
    on the policy object.
    """

    impulsive: np.ndarray
    phi_g: np.ndarray
    phi_i: Mapping[int, int]

    def __post_init__(self) -> None:
        imp = np.array(self.impulsive, dtype=bool)
        imp.flags.writeable = False
        pg = np.array(self.phi_g, dtype=np.int64)
        pg.flags.writeable = False
        object.__setattr__(self, "impulsive", imp)
        object.__setattr__(self, "phi_g", pg)
        object.__setattr__(self, "phi_i", types.MappingProxyType(dict(self.phi_i)))

    def __reduce__(self):
        # A mapping proxy does not pickle; worker processes get a plain copy.
        return StationaryPolicy, (self.impulsive, self.phi_g, dict(self.phi_i))

    def impulse_choice(self) -> np.ndarray:
        """``phi_i`` as an array over states, -1 where it names no action."""
        out = np.full(self.impulsive.size, -1, dtype=np.int64)
        keys = np.fromiter(self.phi_i.keys(), dtype=np.int64, count=len(self.phi_i))
        vals = np.fromiter(self.phi_i.values(), dtype=np.int64, count=len(self.phi_i))
        inside = (keys >= 0) & (keys < out.size)
        out[keys[inside]] = vals[inside]
        return out

    def gradual_action(self, model: CtmdpModel, x: str) -> str:
        k = model.states.index[x]
        return model.actions.gradual[x][int(self.phi_g[k])]

    def impulse_action(self, model: CtmdpModel, x: str) -> str:
        k = model.states.index[x]
        return model.actions.impulsive[x][self.phi_i[k]]


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of :func:`solve`.

    ``gap`` bounds max |V - V*|: U * ``residual`` after policy iteration, the
    distance between the two monotone limits after the fallback.
    ``residual`` is max |T V - V|.  ``iterations_above`` counts sweeps from
    +K/eta (the warm start's embedded-chain sweeps, or the fallback's upper
    iteration);
    ``iterations_below`` counts sweeps from -K/eta and is 0 unless the
    fallback ran.  ``evaluations`` counts policy evaluations and is 0 exactly
    when the fallback produced the result.
    """

    V: ValueFunction
    iterations_above: int
    iterations_below: int
    residual: float
    gap: float
    evaluations: int


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
    """Raise ValueError if the policy is infeasible for the model, naming the
    first offending state in model order."""
    st = model.states
    if policy.impulsive.shape != (st.N,) or policy.phi_g.shape != (st.N,):
        raise ValueError("policy arrays do not match the state count")
    comp = compile_model(model)
    n_imp = np.zeros(st.N, dtype=np.int64)
    n_imp[comp.i_states] = np.diff(comp.i_ptr)
    phi_i = policy.impulse_choice()
    bad_g = ~((policy.phi_g >= 0) & (policy.phi_g < np.diff(comp.g_ptr)))
    no_imp = policy.impulsive & (n_imp == 0)
    bad_i = policy.impulsive & ~((phi_i >= 0) & (phi_i < n_imp))
    bad = np.flatnonzero(bad_g | bad_i)
    if not bad.size:
        return
    x = int(bad[0])
    s = st.labels[x]
    if bad_g[x]:
        raise ValueError(f"phi_g out of range at state {s!r}")
    if no_imp[x]:
        raise ValueError(f"state {s!r} flagged for intervention but has no impulsive action")
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
    """Classify states as wait/intervene and pick minimizing actions.

    A state stays gradual when the gradual branch attains V(x) within
    ``tol_set`` (ties prefer gradual); otherwise the impulsive branch must be
    active.  Ties among actions break to the lowest catalog index.
    """
    comp = compile_model(model)
    g_best, phi_g = segment_argmin(gradual_branch(comp, V.values), comp.g_ptr)
    impulsive = ~(g_best <= V.values + tol_set)
    stuck = np.flatnonzero(impulsive & ~comp.has_impulse)
    if stuck.size:
        raise PolicyExtractionError(
            f"state {model.states.labels[stuck[0]]!r} rejects the gradual branch but has no impulsive action; "
            "V is not a fixed point at the given tolerance"
        )
    pick = comp.g_ptr[:-1] + phi_g
    flagged = np.flatnonzero(impulsive)
    if flagged.size:
        _, i_best = segment_argmin(impulsive_branch(comp, V.values), comp.i_ptr)
        slot = np.searchsorted(comp.i_states, flagged)
        pick[flagged] = comp.g_cost.size + comp.i_ptr[slot] + i_best[slot]
    return _as_policy(comp, pick)


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
    """Optimal value by Howard policy iteration, with a certified error bound.

    The warm start iterates the embedded-chain operator
    (:func:`~impulsive_ctmdp._ops.apply_embedded`) from +K/eta in blocks of
    ceil((K+eta)/eta) sweeps until the greedy policy's intervene region
    repeats across two blocks, or until a sweep moves V by less than ``tol``.
    Here and in the improvement step, "greedy" keeps a state's current
    decision unless another is better by more than roundoff, so a tie cannot
    flip on last-digit noise.  The embedded-chain operator is monotone and
    has the optimality operator's fixed point, so every warm-start iterate
    is a supersolution of both; and impulses cost at least c_lower > 0, so
    that greedy policy has no closed impulse cycle.  Policy iteration then
    alternates :func:`evaluate_policy` with a greedy improvement, and stops
    when the policy repeats.  The returned V is that policy's value, and ``gap``
    bounds |V - V*| by U * |T V - V|, where U = (K+eta)/eta + 2K/(eta c_lower)
    bounds the discounted count of uniformized steps and impulses.

    When an evaluation fails, the policy cycles, the warm start exceeds
    ``max_iter`` sweeps, or the bound exceeds ``tol``, the result is that of
    both monotone value iterations instead: V is the lower limit, ``gap`` the
    distance between the two limits, and ``evaluations`` is 0.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    report = _policy_iteration(model, tol, max_iter)
    if report is not None and report.gap <= tol:
        return report
    V_above, it_above = value_iterate(model, Direction.FROM_ABOVE, tol, max_iter)
    V_below, it_below = value_iterate(model, Direction.FROM_BELOW, tol, max_iter)
    gap = float(np.max(np.abs(V_above.values - V_below.values)))
    return SolveReport(
        V=V_below,
        iterations_above=it_above,
        iterations_below=it_below,
        residual=bellman_residual(model, V_below),
        gap=gap,
        evaluations=0,
    )


def _policy_iteration(model: CtmdpModel, tol: float, max_iter: int) -> SolveReport | None:
    """Warm-started Howard iteration; None where :func:`solve` must fall back."""
    comp = compile_model(model)
    K, eta = comp.K, comp.eta
    n_g = comp.g_cost.size
    # All decisions of a state in one segment, gradual pairs first, so exact
    # ties go to the gradual branch and then to the lowest catalog index.
    owner = np.concatenate([np.repeat(np.arange(comp.N), np.diff(comp.g_ptr)),
                            np.repeat(comp.i_states, np.diff(comp.i_ptr))])
    order = np.argsort(owner, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=comp.N))])
    roundoff = ROUNDOFF * (1.0 + K / eta)

    def greedy(V: np.ndarray, current: np.ndarray | None = None) -> np.ndarray:
        """Each state's best position in (gradual pairs, impulse pairs)."""
        q = np.concatenate([gradual_branch(comp, V), impulsive_branch(comp, V)])
        best, offset = segment_argmin(q[order], ptr)
        pick = order[ptr[:-1] + offset]
        return pick if current is None else np.where(q[current] <= best + roundoff, current, pick)

    block = math.ceil((K + eta) / eta)
    V = np.full(comp.N, K / eta)
    sweeps, pick, step = 0, None, np.inf
    while step >= tol:
        if sweeps + block > max_iter:
            return None
        for _ in range(block):
            Vn = apply_embedded(comp, V)
            step = float(np.max(np.abs(V - Vn)))
            V = Vn
            sweeps += 1
            if step < tol:
                break
        previous, pick = pick, greedy(V, pick)
        if previous is not None and np.array_equal(pick >= n_g, previous >= n_g):
            break

    seen: set[bytes] = set()
    while pick.tobytes() not in seen:
        seen.add(pick.tobytes())
        try:
            value = evaluate_policy(model, _as_policy(comp, pick), tol)
        except NonConvergenceError:
            return None
        improved = greedy(value.values, pick)
        if np.array_equal(improved, pick):
            residual = bellman_residual(model, value)
            return SolveReport(
                V=value,
                iterations_above=sweeps,
                iterations_below=0,
                residual=residual,
                gap=((K + eta) / eta + 2.0 * K / (eta * model.costs.c_lower)) * residual,
                evaluations=len(seen),
            )
        pick = improved
    return None  # the policy cycled


def _as_policy(comp: CompiledModel, pair: np.ndarray) -> StationaryPolicy:
    """Stationary policy from each state's chosen position in (gradual pairs, impulse pairs)."""
    n_g = comp.g_cost.size
    impulsive = pair >= n_g
    flagged = np.flatnonzero(impulsive)
    phi_i = pair[flagged] - n_g - comp.i_ptr[np.searchsorted(comp.i_states, flagged)]
    return StationaryPolicy(
        impulsive=impulsive,
        phi_g=np.where(impulsive, 0, pair - comp.g_ptr[:-1]),
        phi_i=dict(zip(flagged.tolist(), phi_i.tolist())),
    )
