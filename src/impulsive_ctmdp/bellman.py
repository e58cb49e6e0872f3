"""Optimality operator, monotone value iterations, policy iteration, and
policy extraction.

The operator mixes a uniformized gradual branch (contraction of modulus
K/(K+eta)) with an impulsive branch of modulus one.  Iterating it from
+K/eta gives a pointwise non-increasing sequence, from -K/eta a
non-decreasing one; both converge to the unique bounded fixed point, which
is the optimal discounted cost.  :func:`solve` iterates the embedded jump
chain's operator from above (no self-loop, so each state contracts at its
own rate q/(eta+q)) until its intervene region settles, then descends by
sweeps where they certify for less than a factor costs, and elsewhere by
policy iteration's evaluations.  :func:`value_iterate` is the reference those monotone
iterations define; :func:`solve` does not use it.  One greedy rule, :func:`_greedy`, picks the
policy in :func:`solve` and in :func:`extract_policy`.  A policy's evaluation
first asks :func:`~impulsive_ctmdp.intervention.analyze_chains`, from the
module below this one, whether the policy is feasible and its impulse chains land.
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
    check_state_values,
    compile_model,
    embedded_branch,
    factor,
    gradual_branch,
    impulsive_branch,
    per_policy,
    policy_pairs,
    row_entries,
    segment_argmin,
)
from .errors import DEFAULT_TOL, NonConvergenceError, check_integer
from .intervention import ChainAnalysis, analyze_chains
from .model import CtmdpModel, StationaryPolicy

DEFAULT_MAX_ITER = 10 ** 6
DEFAULT_TOL_SET = 1e-8
ROUNDOFF = 1e-14  # improvement threshold and descent margin of solve's evaluations, per unit of K/eta
WARM_CHECK = 8  # warm-start sweeps between two looks at the embedded operator's decisions
# Passes over the policy's waiting-row entries that one factor is charged.  A factor,
# with its chain analysis, measures 300-460 such passes on the epidemic and random
# models and 1,100-2,300 on the all-wait lattices, so sweeps are chosen only where they
# cost less.  Generic documents measure 140-170, but their first factor also imports
# SuperLU (49-82 ms), which the charge leaves out; a lower one would move their swept
# solves onto that import.
FACTOR_WORTH = 200


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

    ``V`` lies above V* and ``policy`` is greedy at ``V``, so V* <= V^policy
    <= V and V - ``gap`` <= V*, up to roundoff: the policy is ``gap``-optimal.
    A report that ends on an evaluation carries the evaluated policy and its
    value ``V``; one that ends on sweeps, the last embedded-chain iterate
    ``V`` and the policy greedy at it.  Sweeps can also end a report after
    evaluations, so ``evaluations`` >= 1 does not mean that ``V`` is the
    policy's value.  ``gap`` = U *
    ``residual`` is at most the requested tol; ``residual`` is max |T V - V|.
    ``iterations_above`` counts the embedded-chain sweeps from +K/eta, and
    ``evaluations`` the policy evaluations.  ``iterations_below`` is always 0;
    it stays so that readers of earlier reports keep their key.
    """

    V: ValueFunction
    policy: StationaryPolicy
    iterations_above: int
    iterations_below: int
    residual: float
    gap: float
    evaluations: int


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
    check_integer("max_iter", max_iter, 1)
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
    """Discounted cost of a fixed stationary policy, by one sparse LU solve
    over the waiting states and the flagged states whose chains draw.

    The value solves V = B V + c.  Gradual states carry the uniformized
    one-step rows at phi_g (B = (J + diag(K - q))/(K+eta), c = running
    cost/(K+eta)); flagged states carry the impulse rows at phi_i (B = Q,
    c = impulse cost).  A sure chain's start x has V(x) = (S V)(x) + w(x),
    with the shortcut matrix S and the weighted sure-chain cost w of
    :func:`~impulsive_ctmdp.intervention.analyze_chains`, so its row leaves
    the system: I - B S over the other states, with c + B w on the right,
    assembled in one pass from the compiled rows (:func:`_policy_system`) and
    factored by :func:`~impulsive_ctmdp._ops.factor`.
    An improper policy raises :class:`ImproperChainError` from that analysis,
    before the policy system is factored.  Raises
    :class:`NonConvergenceError` when I - B is singular, when SuperLU runs
    out of memory, or when the defect max |B V + c - V| over all states
    exceeds ``tol`` > 0.
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
    chains = analyze_chains(model, policy)  # checks the policy and its properness
    comp = compile_model(model)
    A, b, keep = _policy_system(comp, policy, chains)
    lu = factor(A, "policy system")
    if lu is None:
        raise NonConvergenceError("policy evaluation failed; I - B is singular", np.full(comp.N, np.nan), np.inf, 0)
    V = np.zeros(comp.N)
    V[keep] = lu.solve(b)
    V = chains.S @ V + chains.w
    g_rows, flagged, i_rows = policy_pairs(comp, policy)
    TV = gradual_branch(comp, V)[g_rows]
    TV[flagged] = impulsive_branch(comp, V)[i_rows]
    return ValueFunction(V), float(np.max(np.abs(TV - V)))


def _policy_system(comp: CompiledModel, policy: StationaryPolicy,
                   chains: ChainAnalysis) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """I - B S and c + B w over the states that land on themselves, and those states (ascending).

    Each such state has one row: a waiting state its gradual row at phi_g,
    uniformized as in :func:`~impulsive_ctmdp._ops.gradual_branch`, a state
    whose chain draws its impulse row at phi_i.  The product with S moves each
    entry into a sure chain's start j to column ``land[j]`` and scales it by
    the chain's mass; entries that meet in one column are summed.
    """
    K, J, Q = comp.K, comp.J, comp.Q_imp
    g_rows, _, i_rows = policy_pairs(comp, policy)
    stays = chains.land == np.arange(comp.N)
    keep = np.flatnonzero(stays)
    waits = ~policy.impulsive[keep]
    r_wait, r_draw = np.flatnonzero(waits), np.flatnonzero(~waits)
    g_wait, i_draw = g_rows[keep[r_wait]], i_rows[chains.draws]
    e_j, n_j = row_entries(J.indptr, g_wait)
    e_q, n_q = row_entries(Q.indptr, i_draw)
    KE = K + comp.eta
    row = np.concatenate([np.arange(keep.size), r_wait, np.repeat(r_wait, n_j), np.repeat(r_draw, n_q)])
    to = np.concatenate([keep, keep[r_wait], J.indices[e_j], Q.indices[e_q]])
    val = np.concatenate([np.ones(keep.size), (comp.g_total_rate[g_wait] - K) / KE, J.data[e_j] / -KE, -Q.data[e_q]])
    col = (np.cumsum(stays) - 1)[chains.land[to]]
    A = sp.csc_matrix((val * chains.S.data[to], (row, col)), shape=(keep.size, keep.size))
    A.eliminate_zeros()  # a zero rate, or a stay of zero where q = K, is no entry
    b = np.empty(keep.size)
    b[r_wait] = (comp.g_cost[g_wait] + (J @ chains.w)[g_wait]) / KE
    b[r_draw] = comp.i_cost[i_draw] + (Q @ chains.w)[i_draw]
    return A, b, keep


def solve(model: CtmdpModel, tol: float = DEFAULT_TOL) -> SolveReport:
    """Optimal value by one monotone descent of embedded-chain sweeps and
    policy evaluations, with a certified error bound.

    The warm start iterates the embedded-chain operator T_e
    (:func:`~impulsive_ctmdp._ops.apply_embedded`) from +K/eta.  Every
    ``WARM_CHECK`` sweeps it reads the intervene region of T_e's argmin at V
    from that sweep's own minimum (the states where an impulse is strictly
    least) and stops once the region repeats across two checks; T_e's argmin
    there (:func:`_greedy` on :func:`~impulsive_ctmdp._ops.embedded_branch`)
    is the first policy.  Should a sweep move V by less than ``tol`` first (at
    a tie, where the region need not settle), the first policy is
    :func:`_greedy` at V.
    T_e is monotone and shares the fixed point of the optimality operator T,
    so each iterate V has T_e V <= V and T V <= V.  So neither first policy has a
    closed impulse class: each state x of a class C closed under the chosen
    impulses would have V(x) >= (Q V)(x) + c(x) >= min_C V + c_lower, false
    where V is least on C, as impulses cost at least c_lower > 0.

    Then one descent.  Each round predicts the sweeps left until
    U |T V - V| <= tol (:func:`_sweeps_left`) from a bound on it: U times the
    last step (T_e does not expand distances), or the last evaluation's gap.
    Within a budget, the sweeps that cost what a factor is charged
    (``FACTOR_WORTH`` passes over the first policy's waiting rows), the round
    sweeps, checks the certificate from the predicted count on, and returns
    the first V that holds with the policy greedy at V, whose value lies in
    [V*, V] as it attains T V <= V.  Otherwise the round jumps: it evaluates
    the last greedy policy (:func:`evaluate_policy`) and improves it,
    keeping a decision unless another is better by more than roundoff.  A
    stable policy within ``tol`` is returned with its value V; one above
    ``tol`` (at a tie the slack can keep a decision worse by about the
    slack) is improved at slack 0 from then on.  Else its value is the next
    V: the value V^pi of a policy greedy at a supersolution V has
    T V^pi <= T_pi V^pi = V^pi and V^pi <= V.  So ``gap`` = U |T V - V|
    bounds V - V* >= 0, where U = (K+eta)/eta + 2K/(eta c_lower) bounds the
    discounted count of uniformized steps and impulses.

    The descent ends: in exact arithmetic V^pi never rises, so no policy
    repeats.  In floating point an evaluation after the first that lowers V
    nowhere by more than ``ROUNDOFF`` (1 + K/eta) (the same policy again, or
    tie policies trading last-digit decreases) has met the roundoff floor:
    unless its gap is within ``tol``, :class:`NonConvergenceError` is raised
    with ``last`` its V and ``step`` its ``gap``, as for a ``tol`` below the
    floor.  The warm start raises it too if it does not settle in
    ``DEFAULT_MAX_ITER`` sweeps.  A returned report always has
    ``gap <= tol``.  A failed evaluation is raised as it is; no greedy policy
    on a valid model is improper.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    comp = compile_model(model)
    K, eta = comp.K, comp.eta
    n_g = comp.g_cost.size
    V, region, steps = np.full(comp.N, K / eta), None, []
    for sweeps in range(DEFAULT_MAX_ITER):
        if sweeps and not sweeps % WARM_CHECK:
            now = np.zeros(comp.N, dtype=bool)
            Vn = apply_embedded(comp, V, now)
            if region is not None and np.array_equal(now, region):
                pick = _greedy(comp, V, g=embedded_branch(comp, V))[0]
                break
            region = now
        else:
            Vn = apply_embedded(comp, V)
        step, V = float(np.max(np.abs(V - Vn))), Vn
        steps.append(step)
        if step < tol:
            sweeps, pick = sweeps + 1, _greedy(comp, V)[0]
            break
    else:
        raise NonConvergenceError(
            f"warm start did not settle in {DEFAULT_MAX_ITER} sweeps (last step {step})", V, step, DEFAULT_MAX_ITER)

    U = (K + eta) / eta + 2.0 * K / (eta * model.costs.c_lower)
    wait = pick[pick < n_g]
    factor_cost = FACTOR_WORTH * int(np.diff(comp.J.indptr)[wait].sum() + wait.size)
    budget = factor_cost // max(comp.J.nnz + comp.Q_imp.nnz, 1)
    slack = margin = ROUNDOFF * (1.0 + K / eta)
    bound, evaluations = U * step, 0
    while True:
        left = _sweeps_left(bound, tol, steps)
        if left <= budget:
            for extra in range(budget + 1):
                if extra:
                    V = apply_embedded(comp, V)
                if extra >= left:
                    pick, TV = _greedy(comp, V)
                    residual = float(np.max(np.abs(TV - V)))
                    if U * residual <= tol:
                        return SolveReport(V=ValueFunction(V), policy=_as_policy(comp, pick),
                                           iterations_above=sweeps + extra, iterations_below=0,
                                           residual=residual, gap=U * residual, evaluations=evaluations)
            sweeps += budget
        policy = _as_policy(comp, pick)
        value = evaluate_policy(model, policy, tol)
        evaluations += 1
        improved, TV = _greedy(comp, value.values, pick, slack)
        residual = float(np.max(np.abs(TV - value.values)))
        bound = U * residual
        stable = np.array_equal(improved, pick)
        if stable and slack and not bound <= tol:
            # A near-tie kept by the roundoff slack leaves the gap above tol:
            # improve at slack 0 from here on.
            slack = 0.0
            improved, _ = _greedy(comp, value.values, pick, slack)
            stable = np.array_equal(improved, pick)
        if stable and bound <= tol:
            return SolveReport(V=value, policy=policy, iterations_above=sweeps, iterations_below=0,
                               residual=residual, gap=bound, evaluations=evaluations)
        if evaluations > 1 and not bound <= tol and not np.any(value.values < V - margin):
            raise NonConvergenceError(f"certified gap {bound} exceeds tol={tol}", value.values, bound, evaluations)
        V, pick = value.values, improved


def _sweeps_left(bound: float, tol: float, steps: list[float]) -> float:
    """Embedded sweeps predicted to bring a certificate of ``bound`` under ``tol``.

    The rate is the fastest per-sweep contraction of the warm start's
    ``steps`` over any ``WARM_CHECK`` consecutive sweeps (over all of them
    when there are fewer): a slow stretch is a transient of a region that
    still moves, and once it settles the sweeps contract at the fast rate.
    Infinite when no rate below one was seen.  Every step but the last is at
    least tol, or the warm start would have stopped there, so no ratio
    divides by zero.
    """
    if bound <= tol:
        return 0
    w = min(WARM_CHECK, len(steps) - 1)
    rho = min(b / a for a, b in zip(steps, steps[w:])) ** (1.0 / w) if w else 1.0
    return math.ceil((math.log(bound) - math.log(tol)) / -math.log(rho)) if 0.0 < rho < 1.0 else math.inf


def _greedy(comp: CompiledModel, V: np.ndarray, keep: np.ndarray | None = None,
            slack: float = 0.0, g: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each state's greedy position in (gradual pairs, impulse pairs) at ``V``, and T V.

    ``g`` holds the gradual pair values, by default :func:`gradual_branch` at ``V``.
    Exact ties go to the gradual branch and then to the lowest catalog index.
    A state keeps its position in ``keep`` (by default its best gradual pair)
    unless another decision is better by more than ``slack``.
    """
    g = gradual_branch(comp, V) if g is None else g
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
